// Copyright 2026 The Privacy-MaxEnt Reproduction Authors.
// Licensed under the Apache License, Version 2.0.

#ifndef PME_COMMON_FLAGS_H_
#define PME_COMMON_FLAGS_H_

#include <map>
#include <string>
#include <vector>

#include "common/status.h"

namespace pme {

/// Minimal command-line flag parser used by benches and examples.
///
/// Accepts `--name=value` and bare `--name` (boolean true). Anything not
/// starting with `--` is collected as a positional
/// argument. Also honours the PME_FULL environment variable as an alias
/// for `--full` so the whole bench directory can be escalated at once.
class Flags {
 public:
  /// Parses argv. Unknown flags are kept (benches share a common set);
  /// a command with a fixed set of flags refuses the rest with Check.
  Flags(int argc, char** argv);

  /// String flag with default.
  std::string GetString(const std::string& name,
                        const std::string& default_value) const;
  /// Integer flag with default; non-numeric values fall back to default.
  long long GetInt(const std::string& name, long long default_value) const;
  /// Double flag with default.
  double GetDouble(const std::string& name, double default_value) const;
  /// Boolean flag: present without value, or "=true/1/yes".
  bool GetBool(const std::string& name, bool default_value) const;

  /// True when a flag was explicitly supplied.
  bool Has(const std::string& name) const;

  /// Names of the supplied flags outside `known`, in name order. The
  /// `full` that PME_FULL implies is not a supplied flag.
  std::vector<std::string> Unknown(const std::vector<std::string>& known)
      const;

  /// kInvalidArgument naming the first supplied flag that is in neither
  /// `text` nor `integers`, or the first of `integers` whose value is not
  /// an integer; Ok otherwise.
  Status Check(const std::vector<std::string>& text,
               const std::vector<std::string>& integers) const;

  /// Positional (non-flag) arguments, in order.
  const std::vector<std::string>& positional() const { return positional_; }

 private:
  std::map<std::string, std::string> values_;
  std::vector<std::string> positional_;
  bool full_from_env_ = false;
};

}  // namespace pme

#endif  // PME_COMMON_FLAGS_H_
