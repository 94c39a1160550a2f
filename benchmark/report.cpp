#include "report.hpp"

#include <cmath>
#include <cstdio>

namespace thermbench {

std::string tail_note(const Tail& t, const std::string& what) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "p%.1f of %zu ", t.percentile, t.samples);
  return buf + what;
}

void Report::set(const std::string& name, double value, const std::string& unit) {
  values_[name] = Value{value, unit};
}

double Report::get(const std::string& name) const {
  auto it = values_.find(name);
  return it == values_.end() ? 0.0 : it->second.value;
}

void Report::annotate(const std::string& name, const std::string& text) { notes_[name] = text; }

bool Report::emit(bool correct, std::uint64_t attempted, std::uint64_t failed) const {
  bool finite = true;
  std::string body;
  for (const auto& [name, entry] : values_) {
    double v = entry.value;
    if (!std::isfinite(v)) {
      std::fprintf(stderr, "thermbench: metric %s is not finite\n", name.c_str());
      finite = false;
      v = 0.0;
    }
    auto note = notes_.find(name);
    std::printf("  %-32s %-16.10g %-6s%s%s\n", name.c_str(), v, entry.unit.c_str(),
                note != notes_.end() ? "  " : "",
                note != notes_.end() ? note->second.c_str() : "");
    char num[64];
    std::snprintf(num, sizeof num, "%.17g", v);
    if (!body.empty()) {
      body += ", ";
    }
    body += "\"" + name + "\": {\"value\": " + num + ", \"unit\": \"" + entry.unit + "\"}";
  }
  const bool ok = correct && finite;
  std::string json = "{\"correct\": ";
  json += ok ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(attempted);
  json += ", \"failed\": " + std::to_string(failed);
  json += ", \"metrics\": {" + body + "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
  return ok;
}

}  // namespace thermbench
