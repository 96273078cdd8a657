#include "eval/args.h"

#include "common/string_util.h"

namespace kmeansll::eval {

Args::Args(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (!StartsWith(arg, "--")) continue;
    std::string body = arg.substr(2);
    size_t eq = body.find('=');
    if (eq == std::string::npos) {
      // A bare flag reads "1". Not `= "1"`: gcc 12 at -O3 misreads that
      // assignment as an overlapping memcpy and warns under -Wrestrict.
      values_[body].assign(1, '1');
    } else {
      values_[body.substr(0, eq)] = body.substr(eq + 1);
    }
  }
}

bool Args::Has(const std::string& name) const {
  return values_.count(name) > 0;
}

std::string Args::GetString(const std::string& name,
                            const std::string& default_value) const {
  auto it = values_.find(name);
  return it == values_.end() ? default_value : it->second;
}

int64_t Args::GetInt(const std::string& name, int64_t default_value) const {
  auto it = values_.find(name);
  if (it == values_.end()) return default_value;
  int64_t out = 0;
  return ParseInt64(it->second, &out) ? out : default_value;
}

double Args::GetDouble(const std::string& name,
                       double default_value) const {
  auto it = values_.find(name);
  if (it == values_.end()) return default_value;
  double out = 0;
  return ParseDouble(it->second, &out) ? out : default_value;
}

bool Args::GetBool(const std::string& name, bool default_value) const {
  auto it = values_.find(name);
  if (it == values_.end()) return default_value;
  return it->second == "1" || it->second == "true" || it->second == "on";
}

}  // namespace kmeansll::eval
