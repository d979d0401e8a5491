// Shared `--flag` / `--name=value` parsing for the lft_* CLIs
// (lft_scenarios, lft_fleet, lft_forensics, lft_serve, lft_bench_client),
// plus the positional integers of the smaller example programs. Declare
// sinks, then parse(): unknown or malformed arguments print to stderr and
// fail, so every tool keeps the same strict surface. Header-only on purpose
// — the CLIs are the only consumers.
#pragma once

#include <cctype>
#include <cerrno>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <limits>
#include <string>
#include <utility>
#include <vector>

namespace lft::cli {

/// Splits "a,b,c" into {"a","b","c"}; empty segments are dropped.
[[nodiscard]] inline std::vector<std::string> split_csv(const std::string& csv) {
  std::vector<std::string> parts;
  std::size_t start = 0;
  while (start <= csv.size()) {
    const std::size_t comma = csv.find(',', start);
    const std::size_t end = comma == std::string::npos ? csv.size() : comma;
    if (end > start) parts.push_back(csv.substr(start, end - start));
    if (comma == std::string::npos) break;
    start = comma + 1;
  }
  return parts;
}

/// Parses all of `v` as a base-10 integer: false when it is empty, has
/// leading space or trailing characters (`1e5`, `12x`), or overflows.
[[nodiscard]] inline bool parse_i64(const std::string& v, std::int64_t& out) {
  if (v.empty() || std::isspace(static_cast<unsigned char>(v[0])) != 0) return false;
  char* end = nullptr;
  errno = 0;
  const long long x = std::strtoll(v.c_str(), &end, 10);
  if (errno != 0 || end != v.c_str() + v.size()) return false;
  out = x;
  return true;
}

/// parse_i64 for unsigned values; a sign is malformed, since strtoull
/// would silently wrap `-1` to 2^64 - 1.
[[nodiscard]] inline bool parse_u64(const std::string& v, std::uint64_t& out) {
  if (v.empty() || v[0] < '0' || v[0] > '9') return false;
  char* end = nullptr;
  errno = 0;
  const unsigned long long x = std::strtoull(v.c_str(), &end, 10);
  if (errno != 0 || end != v.c_str() + v.size()) return false;
  out = x;
  return true;
}

/// Positional integer argv[index]: true when it is absent (`out` keeps its
/// default) or a base-10 integer in [lo, hi] (stored in `out`); false when
/// it is malformed or out of range.
[[nodiscard]] inline bool positional_i64(int argc, char** argv, int index, std::int64_t lo,
                                         std::int64_t hi, std::int64_t& out) {
  if (index >= argc) return true;
  std::int64_t x = 0;
  if (!parse_i64(argv[index], x) || x < lo || x > hi) return false;
  out = x;
  return true;
}

class ArgParser {
 public:
  /// `first_arg` skips positionals the caller consumed itself (e.g. a
  /// subcommand in argv[1] — pass 2).
  ArgParser(int argc, char** argv, int first_arg = 1) {
    for (int i = first_arg; i < argc; ++i) args_.emplace_back(argv[i]);
  }

  /// `--name` (no value).
  ArgParser& on_flag(const char* name, bool& out) {
    handlers_.push_back(Handler{name, /*takes_value=*/false, /*allows_bare=*/true,
                                [&out](const std::string&) {
                                  out = true;
                                  return true;
                                }});
    return *this;
  }

  /// `--name=string`.
  ArgParser& on_str(const char* name, std::string& out) {
    handlers_.push_back(Handler{name, true, false, [&out](const std::string& v) {
                                  out = v;
                                  return true;
                                }});
    return *this;
  }

  /// `--name=N`, unsigned; malformed values are rejected (parse_u64).
  ArgParser& on_u64(const char* name, std::uint64_t& out) {
    handlers_.push_back(Handler{name, true, false, [&out](const std::string& v) {
                                  return parse_u64(v, out);
                                }});
    return *this;
  }

  /// `--name=N`, signed, clamped below at `min`; malformed values are
  /// rejected (parse_i64).
  ArgParser& on_i64(const char* name, std::int64_t& out, std::int64_t min) {
    handlers_.push_back(Handler{name, true, false, [&out, min](const std::string& v) {
                                  std::int64_t x = 0;
                                  if (!parse_i64(v, x)) return false;
                                  out = x < min ? min : x;
                                  return true;
                                }});
    return *this;
  }

  /// `--name=N`, int, clamped below at `min`; malformed values and values
  /// outside int are rejected.
  ArgParser& on_int(const char* name, int& out, int min) {
    handlers_.push_back(Handler{name, true, false, [&out, min](const std::string& v) {
                                  std::int64_t x = 0;
                                  if (!parse_i64(v, x) || x < std::numeric_limits<int>::min() ||
                                      x > std::numeric_limits<int>::max()) {
                                    return false;
                                  }
                                  out = x < min ? min : static_cast<int>(x);
                                  return true;
                                }});
    return *this;
  }

  /// `--name=PORT`, a TCP port: values above 65535 are rejected, not
  /// wrapped.
  ArgParser& on_port(const char* name, std::uint16_t& out) {
    handlers_.push_back(Handler{name, true, false, [&out](const std::string& v) {
                                  std::uint64_t x = 0;
                                  if (!parse_u64(v, x) || x > 65535) return false;
                                  out = static_cast<std::uint16_t>(x);
                                  return true;
                                }});
    return *this;
  }

  /// `--name=a,b,c` — appends the CSV parts.
  ArgParser& on_csv(const char* name, std::vector<std::string>& out) {
    handlers_.push_back(Handler{name, true, false, [&out](const std::string& v) {
                                  for (auto& part : split_csv(v)) out.push_back(std::move(part));
                                  return true;
                                }});
    return *this;
  }

  /// Custom sink: `fn` gets the raw value ("" for a bare `--name` when
  /// `allow_bare`); return false to reject the argument.
  ArgParser& on_value(const char* name, std::function<bool(const std::string&)> fn,
                      bool allow_bare = false) {
    handlers_.push_back(Handler{name, true, allow_bare, std::move(fn)});
    return *this;
  }

  /// Applies every argument to its handler; false (with a stderr message)
  /// on an unknown or rejected argument.
  [[nodiscard]] bool parse() const {
    for (const std::string& arg : args_) {
      bool matched = false;
      for (const Handler& h : handlers_) {
        if (h.takes_value && arg.size() > h.name.size() + 1 &&
            arg.compare(0, h.name.size(), h.name) == 0 && arg[h.name.size()] == '=') {
          if (!h.apply(arg.substr(h.name.size() + 1))) {
            std::fprintf(stderr, "bad argument: %s\n", arg.c_str());
            return false;
          }
          matched = true;
          break;
        }
        if (h.allows_bare && arg == h.name) {
          if (!h.apply(std::string())) {
            std::fprintf(stderr, "bad argument: %s\n", arg.c_str());
            return false;
          }
          matched = true;
          break;
        }
      }
      if (!matched) {
        std::fprintf(stderr, "unknown argument: %s\n", arg.c_str());
        return false;
      }
    }
    return true;
  }

 private:
  struct Handler {
    std::string name;
    bool takes_value = false;
    bool allows_bare = false;
    std::function<bool(const std::string&)> apply;
  };

  std::vector<std::string> args_;
  std::vector<Handler> handlers_;
};

}  // namespace lft::cli
