#include <gtest/gtest.h>

#include <stdexcept>
#include <string>

#include "cli/args.hpp"

namespace mosaiq::cli {
namespace {

std::vector<const char*> argv_of(std::initializer_list<const char*> args) {
  return {args.begin(), args.end()};
}

ArgParser make_parser() {
  ArgParser p("prog", "test parser");
  p.option("bandwidth", "Mbps", "4")
      .option("name", "a string", "pa")
      .required("seed", "required int")
      .flag("csv", "flag");
  return p;
}

TEST(ArgParser, DefaultsApply) {
  ArgParser p = make_parser();
  const auto args = argv_of({"prog", "--seed", "7"});
  p.parse(static_cast<int>(args.size()), args.data());
  EXPECT_DOUBLE_EQ(p.get_double("bandwidth"), 4.0);
  EXPECT_EQ(p.get("name"), "pa");
  EXPECT_EQ(p.get_int("seed"), 7);
  EXPECT_FALSE(p.get_flag("csv"));
}

TEST(ArgParser, SpaceAndEqualsForms) {
  ArgParser p = make_parser();
  const auto args = argv_of({"prog", "--seed=9", "--bandwidth", "11", "--csv"});
  p.parse(static_cast<int>(args.size()), args.data());
  EXPECT_EQ(p.get_int("seed"), 9);
  EXPECT_DOUBLE_EQ(p.get_double("bandwidth"), 11.0);
  EXPECT_TRUE(p.get_flag("csv"));
}

TEST(ArgParser, Positionals) {
  ArgParser p("prog");
  p.positional("input", "input file").option("k", "count", "1");
  const auto args = argv_of({"prog", "file.txt", "--k", "3", "extra"});
  p.parse(static_cast<int>(args.size()), args.data());
  ASSERT_EQ(p.positionals().size(), 2u);
  EXPECT_EQ(p.positionals()[0], "file.txt");
  EXPECT_EQ(p.positionals()[1], "extra");
}

TEST(ArgParser, Errors) {
  {
    ArgParser p = make_parser();
    const auto args = argv_of({"prog", "--seed", "1", "--bogus", "2"});
    EXPECT_THROW(p.parse(static_cast<int>(args.size()), args.data()), std::invalid_argument);
  }
  {
    ArgParser p = make_parser();
    const auto args = argv_of({"prog"});  // missing required --seed
    EXPECT_THROW(p.parse(static_cast<int>(args.size()), args.data()), std::invalid_argument);
  }
  {
    ArgParser p = make_parser();
    const auto args = argv_of({"prog", "--seed"});  // dangling value
    EXPECT_THROW(p.parse(static_cast<int>(args.size()), args.data()), std::invalid_argument);
  }
  {
    ArgParser p = make_parser();
    const auto args = argv_of({"prog", "--seed", "1", "--csv=1"});  // flag with value
    EXPECT_THROW(p.parse(static_cast<int>(args.size()), args.data()), std::invalid_argument);
  }
  {
    ArgParser p = make_parser();
    const auto args = argv_of({"prog", "--seed", "xyz"});
    p.parse(static_cast<int>(args.size()), args.data());
    EXPECT_THROW(p.get_int("seed"), std::invalid_argument);
  }
  {
    ArgParser p("prog");
    p.positional("input", "input file");
    const auto args = argv_of({"prog"});
    EXPECT_THROW(p.parse(static_cast<int>(args.size()), args.data()), std::invalid_argument);
  }
}

TEST(ArgParser, U32OptionsAreRangeChecked) {
  ArgParser p("prog");
  p.option("n", "count", "5").option("big", "count", "4294967296").option("neg", "count", "-1");
  const auto args = argv_of({"prog", "--n", "4294967295"});
  p.parse(static_cast<int>(args.size()), args.data());
  EXPECT_EQ(p.get_u32("n"), 4294967295u);
  for (const char* name : {"big", "neg"}) {
    try {
      p.get_u32(name);
      ADD_FAILURE() << name << " was accepted";
    } catch (const std::invalid_argument& e) {
      EXPECT_EQ(std::string(e.what()), "--" + std::string(name) + " " + p.get(name) +
                                           " is out of range");
    }
  }
  EXPECT_THROW(parse_u32("clients", "99999999999999999999"), std::invalid_argument);
  EXPECT_THROW(parse_u32("clients", "4x"), std::invalid_argument);
  EXPECT_EQ(parse_u32("clients", "0"), 0u);
}

TEST(ArgParser, HelpRaises) {
  ArgParser p = make_parser();
  const auto args = argv_of({"prog", "--help"});
  EXPECT_THROW(p.parse(static_cast<int>(args.size()), args.data()),
               ArgParser::HelpRequested);
}

TEST(ArgParser, UsageMentionsEverything) {
  ArgParser p = make_parser();
  const std::string u = p.usage();
  EXPECT_NE(u.find("--bandwidth"), std::string::npos);
  EXPECT_NE(u.find("--csv"), std::string::npos);
  EXPECT_NE(u.find("default 4"), std::string::npos);
}

}  // namespace
}  // namespace mosaiq::cli
