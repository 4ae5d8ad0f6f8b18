// bench_check — the CI bench-regression gate:
//
//   bench_check --baseline BENCH_x.json --fresh fresh.json
//               [--metric NAME]... [--info-metric NAME]...
//               [--max-regression F] [--report FILE]
//
// Compares a fresh benchmark run (the JSON a bench_* driver prints) against
// the checked-in baseline JSON. For every `--metric` (repeatable;
// default: speedup) and every point label present in both files, the fresh
// value must not fall below baseline * (1 - max-regression); metrics are
// higher-is-better (speedups, requests/second). Top-level metrics are
// compared the same way under the label "(top)".
//
// `--info-metric` (repeatable) metrics appear in the delta table with
// status "info" but never gate and never count toward `compared` — for
// lifecycle counters (shed / timed-out / degraded) worth eyeballing in the
// report without turning them into perf floors.
//
// `--report FILE` writes a per-metric delta table (also printed to stdout)
// for upload as a CI artifact, so a red gate shows exactly which point
// moved and by how much.
//
// Exit codes: 0 all compared metrics within bounds, 1 regression detected
// or nothing compared (a gate that silently compares nothing is a broken
// gate), 2 usage or unreadable/unparseable input.
//
// The parser covers exactly the JSON subset bench::Report writes
// (bench/bench_common.h): one object of scalars plus a "points" array of
// flat objects; strings, numbers, true/false/null.
#include <cctype>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

namespace {

struct Point {
  std::string label;
  std::map<std::string, double> numbers;
};

struct BenchFile {
  std::map<std::string, double> top;  ///< numeric top-level keys
  std::vector<Point> points;
};

class Parser {
 public:
  explicit Parser(std::string text) : text_(std::move(text)) {}

  bool parse(BenchFile* out) {
    skip_ws();
    return parse_object([&](const std::string& key) {
      if (key == "points") {
        return parse_points(out);
      }
      double value = 0.0;
      bool numeric = false;
      if (!parse_scalar(&value, &numeric)) return false;
      if (numeric) out->top[key] = value;
      return true;
    });
  }

 private:
  bool parse_points(BenchFile* out) {
    if (!consume('[')) return false;
    skip_ws();
    if (consume(']')) return true;
    do {
      Point point;
      if (!parse_object([&](const std::string& key) {
            double value = 0.0;
            bool numeric = false;
            std::string str;
            if (!parse_scalar(&value, &numeric, &str)) return false;
            if (key == "label") {
              point.label = str;
            } else if (numeric) {
              point.numbers[key] = value;
            }
            return true;
          })) {
        return false;
      }
      out->points.push_back(std::move(point));
      skip_ws();
    } while (consume(','));
    return consume(']');
  }

  /// { "key": <value>, ... } — `field` consumes each value.
  template <typename Field>
  bool parse_object(Field field) {
    if (!consume('{')) return false;
    skip_ws();
    if (consume('}')) return true;
    do {
      skip_ws();
      std::string key;
      if (!parse_string(&key)) return false;
      skip_ws();
      if (!consume(':')) return false;
      skip_ws();
      if (!field(key)) return false;
      skip_ws();
    } while (consume(','));
    return consume('}');
  }

  /// string | number | true | false | null
  bool parse_scalar(double* value, bool* numeric, std::string* str = nullptr) {
    *numeric = false;
    skip_ws();
    if (pos_ >= text_.size()) return false;
    const char c = text_[pos_];
    if (c == '"') {
      std::string s;
      if (!parse_string(&s)) return false;
      if (str != nullptr) *str = s;
      return true;
    }
    if (std::strncmp(text_.c_str() + pos_, "true", 4) == 0) {
      pos_ += 4;
      return true;
    }
    if (std::strncmp(text_.c_str() + pos_, "false", 5) == 0) {
      pos_ += 5;
      return true;
    }
    if (std::strncmp(text_.c_str() + pos_, "null", 4) == 0) {
      pos_ += 4;
      return true;
    }
    char* end = nullptr;
    *value = std::strtod(text_.c_str() + pos_, &end);
    if (end == text_.c_str() + pos_) return false;
    pos_ = static_cast<std::size_t>(end - text_.c_str());
    *numeric = true;
    return true;
  }

  bool parse_string(std::string* out) {
    if (!consume('"')) return false;
    out->clear();
    while (pos_ < text_.size() && text_[pos_] != '"') {
      char c = text_[pos_++];
      if (c == '\\' && pos_ < text_.size()) {
        const char esc = text_[pos_++];
        switch (esc) {
          case 'n': c = '\n'; break;
          case 't': c = '\t'; break;
          default: c = esc; break;
        }
      }
      out->push_back(c);
    }
    return consume('"');
  }

  bool consume(char c) {
    skip_ws();
    if (pos_ < text_.size() && text_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }

  void skip_ws() {
    while (pos_ < text_.size() &&
           std::isspace(static_cast<unsigned char>(text_[pos_]))) {
      ++pos_;
    }
  }

  std::string text_;
  std::size_t pos_ = 0;
};

bool load(const char* path, BenchFile* out) {
  std::ifstream in(path);
  if (!in) {
    std::fprintf(stderr, "bench_check: cannot read %s\n", path);
    return false;
  }
  std::ostringstream buffer;
  buffer << in.rdbuf();
  if (!Parser(buffer.str()).parse(out)) {
    std::fprintf(stderr, "bench_check: cannot parse %s\n", path);
    return false;
  }
  return true;
}

const double* find_metric(const std::map<std::string, double>& m,
                          const std::string& key) {
  const auto it = m.find(key);
  return it == m.end() ? nullptr : &it->second;
}

}  // namespace

int main(int argc, char** argv) {
  const char* baseline_path = nullptr;
  const char* fresh_path = nullptr;
  const char* report_path = nullptr;
  std::vector<std::string> metrics;
  std::vector<std::string> info_metrics;
  double max_regression = 0.10;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--baseline") == 0 && i + 1 < argc) {
      baseline_path = argv[++i];
    } else if (std::strcmp(argv[i], "--fresh") == 0 && i + 1 < argc) {
      fresh_path = argv[++i];
    } else if (std::strcmp(argv[i], "--metric") == 0 && i + 1 < argc) {
      metrics.emplace_back(argv[++i]);
    } else if (std::strcmp(argv[i], "--info-metric") == 0 && i + 1 < argc) {
      info_metrics.emplace_back(argv[++i]);
    } else if (std::strcmp(argv[i], "--max-regression") == 0 && i + 1 < argc) {
      max_regression = std::atof(argv[++i]);
    } else if (std::strcmp(argv[i], "--report") == 0 && i + 1 < argc) {
      report_path = argv[++i];
    } else {
      std::fprintf(stderr,
                   "usage: %s --baseline FILE --fresh FILE [--metric NAME]... "
                   "[--info-metric NAME]... [--max-regression F] "
                   "[--report FILE]\n",
                   argv[0]);
      return 2;
    }
  }
  if (baseline_path == nullptr || fresh_path == nullptr) {
    std::fprintf(stderr, "bench_check: --baseline and --fresh are required\n");
    return 2;
  }
  if (metrics.empty()) metrics.emplace_back("speedup");

  BenchFile baseline;
  BenchFile fresh;
  if (!load(baseline_path, &baseline) || !load(fresh_path, &fresh)) return 2;

  // label -> metrics, "(top)" for top-level scalars.
  std::vector<std::pair<std::string, const std::map<std::string, double>*>>
      base_scopes;
  base_scopes.emplace_back("(top)", &baseline.top);
  for (const Point& p : baseline.points) base_scopes.emplace_back(p.label, &p.numbers);
  std::map<std::string, const std::map<std::string, double>*> fresh_scopes;
  fresh_scopes["(top)"] = &fresh.top;
  for (const Point& p : fresh.points) fresh_scopes[p.label] = &p.numbers;

  std::ostringstream report;
  report << "bench-regression report\n"
         << "baseline: " << baseline_path << "\n"
         << "fresh:    " << fresh_path << "\n"
         << "floor:    baseline * " << 1.0 - max_regression << "\n\n";
  char line[256];
  std::snprintf(line, sizeof(line), "%-12s %-24s %12s %12s %8s  %s\n", "point",
                "metric", "baseline", "fresh", "delta%", "status");
  report << line;

  std::size_t compared = 0;
  std::size_t regressed = 0;
  for (const auto& [label, base_metrics] : base_scopes) {
    const auto fresh_it = fresh_scopes.find(label);
    if (fresh_it == fresh_scopes.end()) continue;
    for (const std::string& metric : metrics) {
      const double* base = find_metric(*base_metrics, metric);
      const double* now = find_metric(*fresh_it->second, metric);
      if (base == nullptr || now == nullptr) continue;
      ++compared;
      const double floor = *base * (1.0 - max_regression);
      const bool ok = *now >= floor;
      if (!ok) ++regressed;
      const double delta =
          *base != 0.0 ? (*now - *base) / *base * 100.0 : 0.0;
      std::snprintf(line, sizeof(line), "%-12s %-24s %12.5g %12.5g %+8.2f  %s\n",
                    label.c_str(), metric.c_str(), *base, *now, delta,
                    ok ? "ok" : "REGRESSED");
      report << line;
    }
    // Informational metrics: shown for the record, never gated, never
    // counted — a missing info metric on either side is silently skipped so
    // older baselines keep working.
    for (const std::string& metric : info_metrics) {
      const double* base = find_metric(*base_metrics, metric);
      const double* now = find_metric(*fresh_it->second, metric);
      if (base == nullptr || now == nullptr) continue;
      const double delta =
          *base != 0.0 ? (*now - *base) / *base * 100.0 : 0.0;
      std::snprintf(line, sizeof(line), "%-12s %-24s %12.5g %12.5g %+8.2f  %s\n",
                    label.c_str(), metric.c_str(), *base, *now, delta, "info");
      report << line;
    }
  }

  report << "\ncompared=" << compared << " regressed=" << regressed << "\n";
  std::fputs(report.str().c_str(), stdout);
  if (report_path != nullptr) {
    std::ofstream out(report_path);
    out << report.str();
  }

  if (compared == 0) {
    std::fprintf(stderr,
                 "bench_check: no metric was compared — wrong --metric or "
                 "mismatched point labels\n");
    return 1;
  }
  return regressed == 0 ? 0 : 1;
}
