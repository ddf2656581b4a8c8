// Minimal dependency-free command-line argument parser for the mosaiq
// driver tool: --key value and --key=value long options plus positional
// arguments, with typed accessors, defaults, and a generated usage
// string.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

namespace mosaiq::cli {

struct ArgSpec {
  std::string name;         ///< long option name without the leading "--"
  std::string help;
  std::string default_value;  ///< empty = required unless flag
  bool is_flag = false;       ///< presence-only option
};

class ArgParser {
 public:
  explicit ArgParser(std::string program, std::string description = "");

  ArgParser& option(std::string name, std::string help, std::string default_value);
  ArgParser& required(std::string name, std::string help);
  ArgParser& flag(std::string name, std::string help);
  ArgParser& positional(std::string name, std::string help);

  /// Parses argv; throws std::invalid_argument with a message (and the
  /// usage text) on unknown options, missing values, or missing
  /// required arguments.  "--help" raises HelpRequested.
  void parse(int argc, const char* const* argv);

  struct HelpRequested : std::runtime_error {
    using std::runtime_error::runtime_error;
  };

  bool has(const std::string& name) const;
  std::string get(const std::string& name) const;
  double get_double(const std::string& name) const;
  std::int64_t get_int(const std::string& name) const;
  /// A count or size option: throws std::invalid_argument ("--<name>
  /// <value> is out of range") unless the value is in [0, UINT32_MAX].
  std::uint32_t get_u32(const std::string& name) const;
  bool get_flag(const std::string& name) const;
  const std::vector<std::string>& positionals() const { return positional_values_; }

  std::string usage() const;

 private:
  const ArgSpec* find(const std::string& name) const;

  std::string program_;
  std::string description_;
  std::vector<ArgSpec> specs_;
  std::vector<std::string> positional_names_;
  std::vector<std::string> positional_helps_;
  std::map<std::string, std::string> values_;
  std::vector<std::string> positional_values_;
};

/// get_u32's check for a value that did not come from one option
/// (e.g. one token of a comma-separated list given as --<name>).
std::uint32_t parse_u32(const std::string& name, const std::string& value);

/// Registers the shared observability options ("--trace-out" for Chrome
/// trace_event JSON, "--metrics-out" for the per-phase aggregate CSV;
/// "-" = disabled), used by every subcommand that runs a simulation.
ArgParser& add_observability_options(ArgParser& p);

/// Paths parsed back out of the options above.
struct ObsPaths {
  std::string trace_path;    ///< empty = no trace requested
  std::string metrics_path;  ///< empty = no metrics requested

  bool enabled() const { return !trace_path.empty() || !metrics_path.empty(); }
};

ObsPaths obs_paths_from(const ArgParser& p);

/// Registers the fleet client-fault options: per-client batteries
/// ("--fleet-battery" plus pack/provisioning knobs), scheduled client
/// churn ("--churn-rate"), work replication ("--replication"), the
/// battery-aware scheduler ("--battery-sched"), and "--survival-out"
/// for the survival-curve CSV.  Registration only — the driver builds
/// the core::FleetConfig from the parsed strings, so cli/ stays free
/// of core/ dependencies.
ArgParser& add_fleet_robustness_options(ArgParser& p);

/// Registers the large-fleet options: "--fleet-size" (a single fleet
/// size overriding the "--clients" sweep list, for 10^5-client runs)
/// and the Zipf hotspot knobs "--hotspots" / "--zipf-theta" for skewed
/// shared query streams.
ArgParser& add_fleet_scale_options(ArgParser& p);

}  // namespace mosaiq::cli
