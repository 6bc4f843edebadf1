#include "common/flags.h"

#include <algorithm>
#include <cstdlib>

#include "common/string_util.h"

namespace pme {

Flags::Flags(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (!StartsWith(arg, "--")) {
      positional_.push_back(arg);
      continue;
    }
    std::string body = arg.substr(2);
    auto eq = body.find('=');
    if (eq != std::string::npos) {
      values_[body.substr(0, eq)] = body.substr(eq + 1);
    } else {
      values_[body] = "true";
    }
  }
  const char* full_env = std::getenv("PME_FULL");
  if (full_env != nullptr && std::string(full_env) != "0" &&
      values_.find("full") == values_.end()) {
    values_["full"] = "true";
    full_from_env_ = true;
  }
}

std::string Flags::GetString(const std::string& name,
                             const std::string& default_value) const {
  auto it = values_.find(name);
  return it == values_.end() ? default_value : it->second;
}

long long Flags::GetInt(const std::string& name,
                        long long default_value) const {
  auto it = values_.find(name);
  if (it == values_.end()) return default_value;
  long long v = 0;
  return ParseInt(it->second, &v) ? v : default_value;
}

double Flags::GetDouble(const std::string& name, double default_value) const {
  auto it = values_.find(name);
  if (it == values_.end()) return default_value;
  double v = 0.0;
  return ParseDouble(it->second, &v) ? v : default_value;
}

bool Flags::GetBool(const std::string& name, bool default_value) const {
  auto it = values_.find(name);
  if (it == values_.end()) return default_value;
  const std::string& v = it->second;
  return v == "true" || v == "1" || v == "yes" || v.empty();
}

bool Flags::Has(const std::string& name) const {
  return values_.find(name) != values_.end();
}

std::vector<std::string> Flags::Unknown(
    const std::vector<std::string>& known) const {
  std::vector<std::string> unknown;
  for (const auto& [name, value] : values_) {
    if (name == "full" && full_from_env_) continue;
    if (std::find(known.begin(), known.end(), name) == known.end()) {
      unknown.push_back(name);
    }
  }
  return unknown;
}

Status Flags::Check(const std::vector<std::string>& text,
                    const std::vector<std::string>& integers) const {
  std::vector<std::string> known = text;
  known.insert(known.end(), integers.begin(), integers.end());
  if (const auto unknown = Unknown(known); !unknown.empty()) {
    return Status::InvalidArgument("unknown flag --" + unknown.front());
  }
  for (const std::string& name : integers) {
    auto it = values_.find(name);
    long long v = 0;
    if (it != values_.end() && !ParseInt(it->second, &v)) {
      return Status::InvalidArgument("--" + name +
                                     " must be an integer, got '" +
                                     it->second + "'");
    }
  }
  return Status::Ok();
}

}  // namespace pme
