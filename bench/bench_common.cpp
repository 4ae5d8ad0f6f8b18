#include "bench_common.h"

#include <algorithm>
#include <charconv>
#include <chrono>
#include <cmath>
#include <cstdarg>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <limits>
#include <sstream>

#include "common/thread_pool.h"
#include "matrix/matrix_stats.h"
#include "matrix/ops.h"
#include "ref/gustavson.h"

namespace speck::bench {

std::vector<Measurement> run_suite(
    const std::vector<gen::CorpusEntry>& corpus,
    const std::vector<std::unique_ptr<SpGemmAlgorithm>>& algorithms,
    bool verify) {
  std::vector<Measurement> out;
  for (const gen::CorpusEntry& entry : corpus) {
    const offset_t products = entry.products();
    const Csr oracle = verify ? gustavson_spgemm(entry.a, entry.b) : Csr();
    for (const auto& algorithm : algorithms) {
      Measurement m;
      m.algorithm = algorithm->name();
      m.matrix = entry.name;
      m.products = products;
      SpGemmResult result = algorithm->multiply(entry.a, entry.b);
      m.status = result.status;
      if (result.ok()) {
        m.seconds = result.seconds;
        m.gflops = result.gflops(products);
        m.peak_memory_bytes = result.peak_memory_bytes;
        m.timeline = result.timeline;
        if (verify) {
          const auto diff = compare(result.c, oracle);
          SPECK_REQUIRE(!diff.has_value(), "algorithm " + m.algorithm +
                                               " produced a wrong result on " +
                                               m.matrix + ": " + diff->description);
        }
      }
      out.push_back(std::move(m));
    }
  }
  return out;
}

void print_row(const std::vector<std::string>& cells,
               const std::vector<int>& widths) {
  std::ostringstream os;
  for (std::size_t i = 0; i < cells.size(); ++i) {
    const int width = i < widths.size() ? widths[i] : 12;
    os << ' ';
    std::string cell = cells[i];
    if (static_cast<int>(cell.size()) > width) cell.resize(static_cast<std::size_t>(width));
    os << cell;
    for (int pad = static_cast<int>(cell.size()); pad < width; ++pad) os << ' ';
  }
  std::puts(os.str().c_str());
}

std::string format_double(double v, int precision) {
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), "%.*f", precision, v);
  return buffer;
}

std::string format_bytes_mb(std::size_t bytes) {
  return format_double(static_cast<double>(bytes) / (1024.0 * 1024.0), 1);
}

int apply_thread_flag(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    if (std::string(argv[i]) == "--threads") {
      const int threads = i + 1 < argc ? std::atoi(argv[i + 1]) : 0;
      SPECK_REQUIRE(threads >= 1, "--threads requires a positive integer");
      set_global_thread_count(threads);
      return threads;
    }
  }
  return default_thread_count();
}

double wall_seconds(const std::function<void()>& fn) {
  const auto start = std::chrono::steady_clock::now();
  fn();
  const auto stop = std::chrono::steady_clock::now();
  return std::chrono::duration<double>(stop - start).count();
}

double seconds_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
      .count();
}

void abort_run(const char* format, ...) {
  va_list args;
  va_start(args, format);
  std::vfprintf(stderr, format, args);
  va_end(args);
  std::fputc('\n', stderr);
  std::exit(2);
}

std::map<std::string, double> best_seconds_per_matrix(
    const std::vector<Measurement>& measurements) {
  std::map<std::string, double> best;
  for (const Measurement& m : measurements) {
    if (m.status != SpGemmStatus::kOk) continue;
    auto [it, inserted] = best.emplace(m.matrix, m.seconds);
    if (!inserted) it->second = std::min(it->second, m.seconds);
  }
  return best;
}

}  // namespace speck::bench

namespace speck::bench {

namespace {

/// Parses a whole string of decimal digits into [min, max].
bool parse_integer(const char* s, std::uint64_t min, std::uint64_t max,
                   std::uint64_t* out) {
  const char* end = s + std::strlen(s);
  std::uint64_t value = 0;
  const auto [ptr, ec] = std::from_chars(s, end, value);
  if (ec != std::errc() || ptr != end || value < min || value > max) return false;
  *out = value;
  return true;
}

/// `s` as a quoted JSON string.
std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default: out += c;
    }
  }
  return out + '"';
}

}  // namespace

void Flags::on(std::string name, std::function<void()> set) {
  flags_.push_back({std::move(name), "", [set = std::move(set)](const char*) {
                      set();
                      return true;
                    }});
}

void Flags::count(std::string name, std::function<void(std::size_t)> set) {
  flags_.push_back({std::move(name), "N", [set = std::move(set)](const char* s) {
                      std::uint64_t value = 0;
                      const bool ok =
                          parse_integer(s, 1, std::numeric_limits<int>::max(), &value);
                      if (ok) set(static_cast<std::size_t>(value));
                      return ok;
                    }});
}

void Flags::count(std::string name, std::size_t* value) {
  count(std::move(name), [value](std::size_t n) { *value = n; });
}

void Flags::threads(std::vector<int>* counts) {
  count("--threads", [counts](std::size_t n) { *counts = {static_cast<int>(n)}; });
}

void Flags::number(std::string name, std::string metavar, double* value) {
  flags_.push_back({std::move(name), std::move(metavar), [value](const char* s) {
                      char* end = nullptr;
                      const double parsed = std::strtod(s, &end);
                      if (*s == '\0' || *end != '\0' || !std::isfinite(parsed)) {
                        return false;
                      }
                      *value = parsed;
                      return true;
                    }});
}

void Flags::integer(std::string name, std::uint64_t* value) {
  flags_.push_back({std::move(name), "N", [value](const char* s) {
                      return parse_integer(
                          s, 0, std::numeric_limits<std::uint64_t>::max(), value);
                    }});
}

bool Flags::parse(int argc, char** argv) const {
  for (int i = 1; i < argc; ++i) {
    const auto flag =
        std::find_if(flags_.begin(), flags_.end(),
                     [&](const Flag& f) { return f.name == argv[i]; });
    const bool known = flag != flags_.end();
    if (known && flag->metavar.empty()) {
      flag->apply(nullptr);
      continue;
    }
    if (known && i + 1 < argc && flag->apply(argv[i + 1])) {
      ++i;
      continue;
    }
    std::string bad = argv[i];
    if (known && i + 1 < argc) bad += std::string(" ") + argv[i + 1];
    std::string usage = "usage: " + std::string(argv[0]);
    for (const Flag& f : flags_) {
      usage += " [" + f.name + (f.metavar.empty() ? "" : " " + f.metavar) + "]";
    }
    std::fprintf(stderr, "invalid argument: %s\n%s\n", bad.c_str(),
                 usage.c_str());
    return false;
  }
  return true;
}

Report::Report(const std::string& bench) { text("bench", bench); }

void Report::put(const std::string& key, std::string rendered) {
  Fields& fields = in_point_ ? points_.back().second : top_;
  for (auto& [k, v] : fields) {
    if (k == key) {
      v = std::move(rendered);
      return;
    }
  }
  fields.emplace_back(key, std::move(rendered));
}

void Report::number(const std::string& key, double value) {
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), "%.6g", value);
  put(key, std::isfinite(value) ? buffer : "null");
}

void Report::count(const std::string& key, std::size_t value) {
  put(key, std::to_string(value));
}

void Report::text(const std::string& key, const std::string& value) {
  put(key, json_string(value));
}

void Report::begin_point(int threads) {
  points_.emplace_back("threads" + std::to_string(threads), Fields{});
  in_point_ = true;
  count("threads", static_cast<std::size_t>(threads));
}

void Report::end_point() { in_point_ = false; }

void Report::fail(const char* format, ...) {
  failed_ = true;
  std::fputs("FAIL: ", stderr);
  va_list args;
  va_start(args, format);
  std::vfprintf(stderr, format, args);
  va_end(args);
  std::fputc('\n', stderr);
}

void Report::require_at_least(const char* what, double value, double floor) {
  if (!(std::isfinite(value) && value >= floor)) {
    fail("%s %.4g < %.4g", what, value, floor);
  }
}

void Report::require_at_most(const char* what, double value, double ceiling) {
  if (!(std::isfinite(value) && value <= ceiling)) {
    fail("%s %.4g > %.4g", what, value, ceiling);
  }
}

std::string Report::json() const {
  std::string json = "{\n";
  for (const auto& [key, value] : top_) {
    json += "  " + json_string(key) + ": " + value + ",\n";
  }
  json += "  \"points\": [";
  for (std::size_t p = 0; p < points_.size(); ++p) {
    json += p == 0 ? "\n" : ",\n";
    json += "    {\"label\": " + json_string(points_[p].first);
    for (const auto& [key, value] : points_[p].second) {
      json += ",\n     " + json_string(key) + ": " + value;
    }
    json += "}";
  }
  json += points_.empty() ? "]\n" : "\n  ]\n";
  return json + "}\n";
}

int Report::finish() {
  in_point_ = false;
  text("gate", failed_ ? "fail" : "pass");
  std::fputs(json().c_str(), stdout);
  return failed_ ? 1 : 0;
}

}  // namespace speck::bench

namespace speck::bench {

void write_csv(const std::string& path, const std::vector<Measurement>& measurements) {
  std::ofstream out(path);
  SPECK_REQUIRE(out.good(), "cannot open CSV output file: " + path);
  out << "algorithm,matrix,products,status,seconds,gflops,peak_memory_bytes\n";
  for (const Measurement& m : measurements) {
    out << m.algorithm << ',' << m.matrix << ',' << m.products << ','
        << (m.status == SpGemmStatus::kOk
                ? "ok"
                : m.status == SpGemmStatus::kOutOfMemory ? "oom" : "unsupported")
        << ',' << m.seconds << ',' << m.gflops << ',' << m.peak_memory_bytes
        << '\n';
  }
}

}  // namespace speck::bench

namespace speck::bench {

std::string ascii_chart(const std::vector<std::string>& series_names,
                        const std::vector<std::vector<double>>& series,
                        int height, bool log_scale) {
  SPECK_REQUIRE(series_names.size() == series.size(),
                "one name per series required");
  SPECK_REQUIRE(height >= 2, "chart height must be at least 2");
  static constexpr char kSymbols[] = "*o+x#@%&";
  std::size_t width = 0;
  double lo = std::numeric_limits<double>::infinity();
  double hi = -std::numeric_limits<double>::infinity();
  for (const auto& s : series) {
    width = std::max(width, s.size());
    for (const double v : s) {
      if (v <= 0.0 && log_scale) continue;
      lo = std::min(lo, v);
      hi = std::max(hi, v);
    }
  }
  if (width == 0 || !(lo < hi)) return "(no data)\n";
  const auto scale = [&](double v) {
    if (log_scale) {
      return (std::log(v) - std::log(lo)) / (std::log(hi) - std::log(lo));
    }
    return (v - lo) / (hi - lo);
  };

  std::vector<std::string> grid(static_cast<std::size_t>(height),
                                std::string(width * 2, ' '));
  for (std::size_t si = 0; si < series.size(); ++si) {
    const char symbol = kSymbols[si % (sizeof(kSymbols) - 1)];
    for (std::size_t x = 0; x < series[si].size(); ++x) {
      const double v = series[si][x];
      if (v <= 0.0 && log_scale) continue;
      const auto y = static_cast<std::size_t>(
          std::clamp(scale(v), 0.0, 1.0) * (height - 1) + 0.5);
      grid[static_cast<std::size_t>(height - 1) - y][x * 2] = symbol;
    }
  }

  std::ostringstream os;
  os << format_double(hi, 2) << " +" << '\n';
  for (const auto& line : grid) os << "  |" << line << '\n';
  os << format_double(lo, 2) << " +" << std::string(width * 2, '-') << '\n';
  os << "   legend:";
  for (std::size_t si = 0; si < series_names.size(); ++si) {
    os << ' ' << kSymbols[si % (sizeof(kSymbols) - 1)] << '=' << series_names[si];
  }
  os << '\n';
  return os.str();
}

}  // namespace speck::bench
