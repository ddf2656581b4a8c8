#include "cli/args.hpp"

#include <limits>
#include <sstream>

namespace mosaiq::cli {

ArgParser::ArgParser(std::string program, std::string description)
    : program_(std::move(program)), description_(std::move(description)) {}

ArgParser& ArgParser::option(std::string name, std::string help, std::string default_value) {
  specs_.push_back({std::move(name), std::move(help), std::move(default_value), false});
  return *this;
}

ArgParser& ArgParser::required(std::string name, std::string help) {
  specs_.push_back({std::move(name), std::move(help), "", false});
  return *this;
}

ArgParser& ArgParser::flag(std::string name, std::string help) {
  specs_.push_back({std::move(name), std::move(help), "", true});
  return *this;
}

ArgParser& ArgParser::positional(std::string name, std::string help) {
  positional_names_.push_back(std::move(name));
  positional_helps_.push_back(std::move(help));
  return *this;
}

const ArgSpec* ArgParser::find(const std::string& name) const {
  for (const ArgSpec& s : specs_) {
    if (s.name == name) return &s;
  }
  return nullptr;
}

void ArgParser::parse(int argc, const char* const* argv) {
  values_.clear();
  positional_values_.clear();

  for (int i = 1; i < argc; ++i) {
    std::string tok = argv[i];
    if (tok == "--help" || tok == "-h") throw HelpRequested(usage());
    if (tok.rfind("--", 0) == 0) {
      std::string name = tok.substr(2);
      std::string value;
      bool has_inline = false;
      if (const auto eq = name.find('='); eq != std::string::npos) {
        value = name.substr(eq + 1);
        name = name.substr(0, eq);
        has_inline = true;
      }
      const ArgSpec* spec = find(name);
      if (spec == nullptr) {
        throw std::invalid_argument("unknown option --" + name + "\n" + usage());
      }
      if (spec->is_flag) {
        if (has_inline) {
          throw std::invalid_argument("flag --" + name + " takes no value\n" + usage());
        }
        // The std::string temporary sidesteps a GCC 12 -Wrestrict false
        // positive (PR 105329) on assigning a literal into a map slot.
        values_[name] = std::string("1");
        continue;
      }
      if (!has_inline) {
        if (i + 1 >= argc) {
          throw std::invalid_argument("option --" + name + " needs a value\n" + usage());
        }
        value = argv[++i];
      }
      values_[name] = value;
    } else {
      positional_values_.push_back(tok);
    }
  }

  for (const ArgSpec& s : specs_) {
    if (values_.contains(s.name)) continue;
    if (s.is_flag) continue;
    if (s.default_value.empty()) {
      throw std::invalid_argument("missing required option --" + s.name + "\n" + usage());
    }
    values_[s.name] = s.default_value;
  }
  if (positional_values_.size() < positional_names_.size()) {
    throw std::invalid_argument("missing positional argument <" +
                                positional_names_[positional_values_.size()] + ">\n" + usage());
  }
}

bool ArgParser::has(const std::string& name) const { return values_.contains(name); }

std::string ArgParser::get(const std::string& name) const {
  const auto it = values_.find(name);
  if (it == values_.end()) {
    throw std::invalid_argument("option --" + name + " was not provided");
  }
  return it->second;
}

double ArgParser::get_double(const std::string& name) const {
  const std::string v = get(name);
  std::size_t pos = 0;
  const double d = std::stod(v, &pos);
  if (pos != v.size()) throw std::invalid_argument("--" + name + ": not a number: " + v);
  return d;
}

std::int64_t ArgParser::get_int(const std::string& name) const {
  const std::string v = get(name);
  std::size_t pos = 0;
  const std::int64_t i = std::stoll(v, &pos);
  if (pos != v.size()) throw std::invalid_argument("--" + name + ": not an integer: " + v);
  return i;
}

std::uint32_t ArgParser::get_u32(const std::string& name) const {
  return parse_u32(name, get(name));
}

bool ArgParser::get_flag(const std::string& name) const { return values_.contains(name); }

std::string ArgParser::usage() const {
  std::ostringstream os;
  os << "usage: " << program_;
  for (const std::string& p : positional_names_) os << " <" << p << ">";
  os << " [options]\n";
  if (!description_.empty()) os << description_ << "\n";
  if (!positional_names_.empty()) {
    os << "\narguments:\n";
    for (std::size_t i = 0; i < positional_names_.size(); ++i) {
      os << "  <" << positional_names_[i] << ">  " << positional_helps_[i] << "\n";
    }
  }
  if (!specs_.empty()) {
    os << "\noptions:\n";
    for (const ArgSpec& s : specs_) {
      os << "  --" << s.name;
      if (!s.is_flag) {
        os << " <value>";
        if (!s.default_value.empty()) os << " (default " << s.default_value << ")";
      }
      os << "  " << s.help << "\n";
    }
  }
  return os.str();
}

std::uint32_t parse_u32(const std::string& name, const std::string& value) {
  const std::string out_of_range = "--" + name + " " + value + " is out of range";
  std::size_t pos = 0;
  std::int64_t v = 0;
  try {
    v = std::stoll(value, &pos);
  } catch (const std::out_of_range&) {
    throw std::invalid_argument(out_of_range);
  }
  if (pos != value.size()) throw std::invalid_argument("--" + name + ": not an integer: " + value);
  if (v < 0 || v > std::int64_t{std::numeric_limits<std::uint32_t>::max()}) {
    throw std::invalid_argument(out_of_range);
  }
  return static_cast<std::uint32_t>(v);
}

ArgParser& add_observability_options(ArgParser& p) {
  return p
      .option("trace-out",
              "write a Chrome trace_event JSON of every simulated phase to this path", "-")
      .option("metrics-out", "write the per-phase aggregate metrics CSV to this path", "-");
}

ObsPaths obs_paths_from(const ArgParser& p) {
  ObsPaths o;
  if (p.get("trace-out") != "-") o.trace_path = p.get("trace-out");
  if (p.get("metrics-out") != "-") o.metrics_path = p.get("metrics-out");
  return o;
}

ArgParser& add_fleet_robustness_options(ArgParser& p) {
  return p
      .flag("fleet-battery", "give every client a heterogeneous battery that query legs drain")
      .option("battery-capacity-mah", "nominal pack capacity, mAh", "1000")
      .option("battery-spread", "per-client capacity jitter, fraction (+/-)", "0.25")
      .option("battery-min-charge", "lowest initial state of charge, fraction", "0.35")
      .option("plugged-fraction", "probability a client is on wall power", "0")
      .option("battery-seed", "battery provisioning RNG seed", "2003")
      .flag("no-battery-deaths", "track charge but never kill exhausted clients")
      .option("churn-rate", "scheduled client departures per second (0 = none)", "0")
      .option("churn-seed", "churn schedule RNG seed", "1")
      .option("churn-min-uptime", "grace period before any scheduled departure, seconds", "0")
      .option("replication", "live copies of each work unit (1 = none)", "1")
      .flag("battery-sched", "bias per-query partitioning by reported battery state")
      .option("sched-low-charge", "charge at which the scheduler goes fully server-heavy",
              "0.2")
      .option("sched-high-charge", "charge at which the scheduler stops protecting the battery",
              "0.8")
      .option("sched-horizon", "target client lifetime for the scheduler, seconds", "600")
      .option("survival-out", "write the survival curve (time,alive,client,cause) CSV", "-");
}

ArgParser& add_fleet_scale_options(ArgParser& p) {
  return p
      .option("fleet-size",
              "run one fleet of exactly this size, overriding --clients (0 = off)", "0")
      .option("hotspots",
              "Zipf-skewed shared query streams; clients draw one by popularity (0 = "
              "every client its own stream)",
              "0")
      .option("zipf-theta", "Zipf exponent for hotspot popularity", "0.9");
}

}  // namespace mosaiq::cli
