#include "scenario/spec.h"

#include <cstdio>
#include <utility>

#include "common/text.h"
#include "fault/fault.h"

namespace music::scn {
namespace {

// ---- Lexing helpers --------------------------------------------------------

struct Tok {
  std::string_view text;
  int col = 1;  // 1-based column within the line
};

using text::parse_num;
using text::parse_time;
using text::time_str;

/// Splits one (comment-stripped) line on whitespace, keeping columns.
std::vector<Tok> tokenize_line(std::string_view line) {
  std::vector<Tok> toks;
  for (std::string_view t : text::tokenize(line)) {
    toks.push_back({t, static_cast<int>(t.data() - line.data()) + 1});
  }
  return toks;
}

std::string float_str(double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.10g", v);
  return buf;
}

/// Splits a comma list ("a,b,c") into its parts; empty parts are an error.
bool split_list(std::string_view s, std::vector<std::string_view>* out) {
  while (true) {
    size_t comma = s.find(',');
    std::string_view part = s.substr(0, comma);
    if (part.empty()) return false;
    out->push_back(part);
    if (comma == std::string_view::npos) return true;
    s.remove_prefix(comma + 1);
  }
}

bool known_profile(std::string_view name) {
  return name == "11" || name == "lUs" || name == "lUsEu" || name == "local";
}

/// "1:2:2" — exactly three colon-separated per-site max wire versions,
/// each a single digit 1..9.
bool valid_versions(std::string_view s) {
  if (s.size() != 5 || s[1] != ':' || s[3] != ':') return false;
  for (size_t i : {size_t{0}, size_t{2}, size_t{4}}) {
    if (s[i] < '1' || s[i] > '9') return false;
  }
  return true;
}

// ---- Parser ----------------------------------------------------------------

/// Parser state: current position for diagnostics plus one-shot failure.
struct Parser {
  Diag* diag;
  bool failed = false;

  bool fail(int line, int col, std::string msg) {
    if (!failed && diag != nullptr) {
      diag->line = line;
      diag->col = col;
      diag->message = std::move(msg);
    }
    failed = true;
    return false;
  }
  bool fail_tok(int line, const Tok& t, std::string msg) {
    return fail(line, t.col, std::move(msg));
  }
};

/// One "key value..." line inside a block (or at top level), pre-tokenized.
struct Line {
  int number = 0;
  std::vector<Tok> toks;

  const Tok& key() const { return toks[0]; }
  size_t values() const { return toks.size() - 1; }
  const Tok& val(size_t i = 0) const { return toks[i + 1]; }
};

bool want_values(Parser& p, const Line& l, size_t n) {
  if (l.values() == n) return true;
  return p.fail_tok(l.number, l.key(),
                    "\"" + std::string(l.key().text) + "\" wants " +
                        std::to_string(n) + " value(s), got " +
                        std::to_string(l.values()));
}

bool read_int(Parser& p, const Line& l, size_t i, int64_t lo, int64_t hi,
              int64_t* out) {
  if (!parse_num(l.val(i).text, out) || *out < lo || *out > hi) {
    return p.fail_tok(l.number, l.val(i),
                      "bad integer \"" + std::string(l.val(i).text) +
                          "\" (want " + std::to_string(lo) + ".." +
                          std::to_string(hi) + ")");
  }
  return true;
}

bool read_time(Parser& p, const Line& l, size_t i, sim::Duration* out) {
  if (!parse_time(l.val(i).text, out)) {
    return p.fail_tok(l.number, l.val(i),
                      "bad time \"" + std::string(l.val(i).text) +
                          "\" (want NUMBER s|ms|us)");
  }
  return true;
}

bool apply_topology(Parser& p, const Line& l, TopologyBlock* t) {
  std::string_view key = l.key().text;
  if (key == "profiles") {
    if (!want_values(p, l, 1)) return false;
    std::vector<std::string_view> parts;
    if (!split_list(l.val().text, &parts)) {
      return p.fail_tok(l.number, l.val(), "bad profile list");
    }
    t->profiles.clear();
    for (auto part : parts) {
      if (!known_profile(part)) {
        return p.fail_tok(l.number, l.val(),
                          "unknown profile \"" + std::string(part) +
                              "\" (want 11|lUs|lUsEu|local)");
      }
      t->profiles.emplace_back(part);
    }
    return true;
  }
  if (key == "holder_site") {
    int64_t v;
    if (!want_values(p, l, 1) || !read_int(p, l, 0, -1, 2, &v)) return false;
    t->holder_site = static_cast<int>(v);
    return true;
  }
  if (key == "store_nodes") {
    int64_t v;
    if (!want_values(p, l, 1) || !read_int(p, l, 0, 3, 9, &v)) return false;
    t->store_nodes = static_cast<int>(v);
    return true;
  }
  if (key == "shards") {
    if (!want_values(p, l, 1)) return false;
    std::vector<std::string_view> parts;
    if (!split_list(l.val().text, &parts)) {
      return p.fail_tok(l.number, l.val(), "bad shard list");
    }
    t->shards.clear();
    for (auto part : parts) {
      int64_t v;
      if (!parse_num(part, &v) || v < 1 || v > 1024) {
        return p.fail_tok(l.number, l.val(),
                          "bad shard count \"" + std::string(part) +
                              "\" (want 1..1024)");
      }
      t->shards.push_back(static_cast<int>(v));
    }
    return true;
  }
  if (key == "versions") {
    if (!want_values(p, l, 1)) return false;
    std::vector<std::string_view> parts;
    if (!split_list(l.val().text, &parts)) {
      return p.fail_tok(l.number, l.val(), "bad version list");
    }
    t->versions.clear();
    for (auto part : parts) {
      if (!valid_versions(part)) {
        return p.fail_tok(l.number, l.val(),
                          "bad fleet versions \"" + std::string(part) +
                              "\" (want V:V:V, each 1..9)");
      }
      t->versions.emplace_back(part);
    }
    return true;
  }
  return p.fail_tok(l.number, l.key(),
                    "unknown topology key \"" + std::string(key) + "\"");
}

bool apply_workload(Parser& p, const Line& l, WorkloadBlock* w) {
  std::string_view key = l.key().text;
  if (key == "mixes") {
    if (!want_values(p, l, 1)) return false;
    std::vector<std::string_view> parts;
    if (!split_list(l.val().text, &parts)) {
      return p.fail_tok(l.number, l.val(), "bad mix list");
    }
    w->mixes.clear();
    for (auto part : parts) {
      double v;
      if (!parse_num(part, &v) || v < 0.0 || v > 1.0) {
        return p.fail_tok(l.number, l.val(),
                          "bad read fraction \"" + std::string(part) +
                              "\" (want 0..1)");
      }
      w->mixes.push_back(v);
    }
    return true;
  }
  if (key == "clients") {
    if (!want_values(p, l, 1)) return false;
    std::vector<std::string_view> parts;
    if (!split_list(l.val().text, &parts)) {
      return p.fail_tok(l.number, l.val(), "bad client list");
    }
    w->clients.clear();
    for (auto part : parts) {
      int64_t v;
      if (!parse_num(part, &v) || v < 1 || v > 100000) {
        return p.fail_tok(l.number, l.val(),
                          "bad client count \"" + std::string(part) + "\"");
      }
      w->clients.push_back(static_cast<int>(v));
    }
    return true;
  }
  if (key == "placement") {
    if (!want_values(p, l, 1)) return false;
    std::vector<std::string_view> parts;
    if (!split_list(l.val().text, &parts) || parts.size() != 3) {
      return p.fail_tok(l.number, l.val(),
                        "placement wants 3 comma-separated weights");
    }
    w->placement.clear();
    int64_t sum = 0;
    for (auto part : parts) {
      int64_t v;
      if (!parse_num(part, &v) || v < 0) {
        return p.fail_tok(l.number, l.val(),
                          "bad placement weight \"" + std::string(part) + "\"");
      }
      sum += v;
      w->placement.push_back(static_cast<int>(v));
    }
    if (sum == 0) {
      return p.fail_tok(l.number, l.val(), "placement weights sum to zero");
    }
    return true;
  }
  if (key == "keys") {
    int64_t v;
    // Capped at 1e6: Zipfian zeta precomputation is O(keys) per world.
    if (!want_values(p, l, 1) || !read_int(p, l, 0, 1, 1000000, &v)) {
      return false;
    }
    w->keys = static_cast<uint64_t>(v);
    return true;
  }
  if (key == "keying") {
    if (l.values() < 1) {
      return p.fail_tok(l.number, l.key(),
                        "keying wants zipfian [THETA] | uniform | single");
    }
    std::string_view kind = l.val().text;
    if (kind == "uniform" && l.values() == 1) {
      w->keying = Keying::Uniform;
      return true;
    }
    if (kind == "single" && l.values() == 1) {
      w->keying = Keying::Single;
      return true;
    }
    if (kind == "zipfian" && l.values() <= 2) {
      w->keying = Keying::Zipfian;
      if (l.values() == 2) {
        double theta;
        if (!parse_num(l.val(1).text, &theta) || theta <= 0.0 ||
            theta >= 1.0) {
          return p.fail_tok(l.number, l.val(1),
                            "bad zipfian theta (want 0 < theta < 1)");
        }
        w->zipf_theta = theta;
      }
      return true;
    }
    return p.fail_tok(l.number, l.val(),
                      "keying wants zipfian [THETA] | uniform | single");
  }
  if (key == "arrival") {
    if (l.values() < 1) {
      return p.fail_tok(l.number, l.key(),
                        "arrival wants closed | poisson RATE | diurnal RATE "
                        "period TIME low FRAC");
    }
    std::string_view kind = l.val().text;
    if (kind == "closed" && l.values() == 1) {
      w->arrival = Arrival{};
      return true;
    }
    if (kind == "poisson" && l.values() == 2) {
      double rate;
      if (!parse_num(l.val(1).text, &rate) || rate <= 0.0) {
        return p.fail_tok(l.number, l.val(1), "bad poisson rate (want > 0)");
      }
      w->arrival = Arrival{};
      w->arrival.kind = ArrivalKind::Poisson;
      w->arrival.rate = rate;
      return true;
    }
    if (kind == "diurnal" && l.values() == 6 &&
        l.val(2).text == "period" && l.val(4).text == "low") {
      Arrival a;
      a.kind = ArrivalKind::Diurnal;
      if (!parse_num(l.val(1).text, &a.rate) || a.rate <= 0.0) {
        return p.fail_tok(l.number, l.val(1), "bad diurnal rate (want > 0)");
      }
      if (!read_time(p, l, 3, &a.period)) return false;
      if (a.period <= 0) {
        return p.fail_tok(l.number, l.val(3), "diurnal period must be > 0");
      }
      if (!parse_num(l.val(5).text, &a.low) || a.low < 0.0 || a.low > 1.0) {
        return p.fail_tok(l.number, l.val(5),
                          "bad diurnal low fraction (want 0..1)");
      }
      w->arrival = a;
      return true;
    }
    return p.fail_tok(l.number, l.val(),
                      "arrival wants closed | poisson RATE | diurnal RATE "
                      "period TIME low FRAC");
  }
  if (key == "value") {
    int64_t v;
    if (!want_values(p, l, 1) || !read_int(p, l, 0, 1, 1 << 20, &v)) {
      return false;
    }
    w->value_size = static_cast<size_t>(v);
    return true;
  }
  if (key == "warmup") {
    return want_values(p, l, 1) && read_time(p, l, 0, &w->warmup);
  }
  if (key == "measure") {
    if (!want_values(p, l, 1) || !read_time(p, l, 0, &w->measure)) {
      return false;
    }
    if (w->measure <= 0) {
      return p.fail_tok(l.number, l.val(), "measure must be > 0");
    }
    return true;
  }
  return p.fail_tok(l.number, l.key(),
                    "unknown workload key \"" + std::string(key) + "\"");
}

/// Normalizes a fault script: clauses split on ';'/newline, tokens joined
/// with single spaces, clauses joined with "; ".  Idempotent.
std::string normalize_faults(std::string_view script) {
  std::string out;
  std::string_view rest = script;
  while (!rest.empty()) {
    size_t sep = rest.find_first_of(";\n");
    std::string_view clause = rest.substr(0, sep);
    auto toks = tokenize_line(clause);
    if (!toks.empty()) {
      if (!out.empty()) out += "; ";
      for (size_t i = 0; i < toks.size(); ++i) {
        if (i > 0) out += ' ';
        out += toks[i].text;
      }
    }
    if (sep == std::string_view::npos) break;
    rest.remove_prefix(sep + 1);
  }
  return out;
}

}  // namespace

std::string Diag::str() const {
  std::string out = "line ";
  out += std::to_string(line);
  out += ", col ";
  out += std::to_string(col);
  out += ": ";
  out += message;
  return out;
}

const char* to_string(Protocol p) {
  switch (p) {
    case Protocol::Music: return "music";
    case Protocol::Mscp: return "mscp";
    case Protocol::Zab: return "zab";
    case Protocol::RaftKv: return "raftkv";
  }
  return "unknown";
}

std::optional<Protocol> protocol_from(std::string_view name) {
  if (name == "music") return Protocol::Music;
  if (name == "mscp") return Protocol::Mscp;
  if (name == "zab") return Protocol::Zab;
  if (name == "raftkv") return Protocol::RaftKv;
  return std::nullopt;
}

std::optional<ScenarioSpec> ScenarioSpec::parse(std::string_view text,
                                                Diag* diag) {
  ScenarioSpec spec;
  Parser p{diag};

  enum class Block : uint8_t { None, Topology, Workload, Faults };
  Block block = Block::None;
  bool saw_name = false;
  std::string fault_lines;          // raw, for normalization
  std::vector<int> fault_linenos;   // file line of each fault clause line
  std::vector<std::string> fault_raw;

  int lineno = 0;
  std::string_view rest = text;
  while (!rest.empty() || lineno == 0) {
    size_t nl = rest.find('\n');
    std::string_view raw_line = rest.substr(0, nl);
    rest = nl == std::string_view::npos ? std::string_view{}
                                        : rest.substr(nl + 1);
    ++lineno;
    // Strip comments.
    size_t hash = raw_line.find('#');
    std::string_view line =
        hash == std::string_view::npos ? raw_line : raw_line.substr(0, hash);
    auto toks = tokenize_line(line);
    if (toks.empty()) {
      if (rest.empty()) break;
      continue;
    }

    if (block == Block::Faults) {
      if (toks.size() == 1 && toks[0].text == "}") {
        block = Block::None;
      } else {
        // Validate the clause line in place so diagnostics carry the file
        // position; the normalized script is assembled at the end.
        fault::ParseDiag fd;
        if (!fault::Schedule::parse(line, &fd).has_value()) {
          p.fail(lineno, fd.col, fd.message);
          return std::nullopt;
        }
        fault_raw.emplace_back(line);
        fault_linenos.push_back(lineno);
      }
      if (rest.empty()) break;
      continue;
    }

    Line l{lineno, toks};
    std::string_view key = toks[0].text;

    if (toks.size() == 1 && key == "}") {
      if (block == Block::None) {
        p.fail_tok(lineno, toks[0], "\"}\" outside any block");
        return std::nullopt;
      }
      block = Block::None;
      if (rest.empty()) break;
      continue;
    }

    if (block == Block::Topology) {
      if (!apply_topology(p, l, &spec.topology)) return std::nullopt;
      if (rest.empty()) break;
      continue;
    }
    if (block == Block::Workload) {
      if (!apply_workload(p, l, &spec.workload)) return std::nullopt;
      if (rest.empty()) break;
      continue;
    }

    // Top level.
    if (key == "topology" || key == "workload" || key == "faults") {
      if (toks.size() != 2 || toks[1].text != "{") {
        p.fail_tok(lineno, toks[0],
                   "expected \"" + std::string(key) + " {\"");
        return std::nullopt;
      }
      block = key == "topology"  ? Block::Topology
              : key == "workload" ? Block::Workload
                                  : Block::Faults;
    } else if (key == "scenario") {
      if (!want_values(p, l, 1)) return std::nullopt;
      for (char c : l.val().text) {
        if (!std::isalnum(static_cast<unsigned char>(c)) && c != '_' &&
            c != '-') {
          p.fail_tok(lineno, l.val(),
                     "scenario name must be [A-Za-z0-9_-]+");
          return std::nullopt;
        }
      }
      spec.name = std::string(l.val().text);
      saw_name = true;
    } else if (key == "seeds") {
      int64_t v;
      if (!want_values(p, l, 1) || !read_int(p, l, 0, 1, 1000, &v)) {
        return std::nullopt;
      }
      spec.seeds = static_cast<int>(v);
    } else if (key == "base_seed") {
      int64_t v;
      if (!want_values(p, l, 1) ||
          !read_int(p, l, 0, 1, int64_t{1} << 62, &v)) {
        return std::nullopt;
      }
      spec.base_seed = static_cast<uint64_t>(v);
    } else if (key == "protocols") {
      if (!want_values(p, l, 1)) return std::nullopt;
      std::vector<std::string_view> parts;
      if (!split_list(l.val().text, &parts)) {
        p.fail_tok(lineno, l.val(), "bad protocol list");
        return std::nullopt;
      }
      spec.protocols.clear();
      for (auto part : parts) {
        auto proto = protocol_from(part);
        if (!proto.has_value()) {
          p.fail_tok(lineno, l.val(),
                     "unknown protocol \"" + std::string(part) +
                         "\" (want music|mscp|zab|raftkv)");
          return std::nullopt;
        }
        spec.protocols.push_back(*proto);
      }
    } else {
      p.fail_tok(lineno, toks[0],
                 "unknown directive \"" + std::string(key) + "\"");
      return std::nullopt;
    }
    if (rest.empty()) break;
  }

  if (block != Block::None) {
    p.fail(lineno, 1, "unterminated block (missing \"}\")");
    return std::nullopt;
  }
  if (!saw_name) {
    p.fail(1, 1, "missing \"scenario NAME\"");
    return std::nullopt;
  }

  for (const std::string& raw : fault_raw) {
    if (!fault_lines.empty()) fault_lines += "; ";
    fault_lines += raw;
  }
  spec.faults = normalize_faults(fault_lines);
  (void)fault_linenos;
  return spec;
}

std::string ScenarioSpec::format() const {
  std::string out;
  out += "scenario " + name + "\n";
  out += "seeds " + std::to_string(seeds) + "\n";
  out += "base_seed " + std::to_string(base_seed) + "\n";
  out += "protocols ";
  for (size_t i = 0; i < protocols.size(); ++i) {
    if (i > 0) out += ',';
    out += to_string(protocols[i]);
  }
  out += "\n\ntopology {\n";
  out += "  profiles ";
  for (size_t i = 0; i < topology.profiles.size(); ++i) {
    if (i > 0) out += ',';
    out += topology.profiles[i];
  }
  out += "\n";
  out += "  holder_site " + std::to_string(topology.holder_site) + "\n";
  out += "  store_nodes " + std::to_string(topology.store_nodes) + "\n";
  out += "  shards ";
  for (size_t i = 0; i < topology.shards.size(); ++i) {
    if (i > 0) out += ',';
    out += std::to_string(topology.shards[i]);
  }
  out += "\n";
  if (topology.versions != std::vector<std::string>{""}) {
    out += "  versions ";
    for (size_t i = 0; i < topology.versions.size(); ++i) {
      if (i > 0) out += ',';
      out += topology.versions[i];
    }
    out += "\n";
  }
  out += "}\n\nworkload {\n";
  out += "  mixes ";
  for (size_t i = 0; i < workload.mixes.size(); ++i) {
    if (i > 0) out += ',';
    out += float_str(workload.mixes[i]);
  }
  out += "\n  clients ";
  for (size_t i = 0; i < workload.clients.size(); ++i) {
    if (i > 0) out += ',';
    out += std::to_string(workload.clients[i]);
  }
  out += "\n";
  if (!workload.placement.empty()) {
    out += "  placement ";
    for (size_t i = 0; i < workload.placement.size(); ++i) {
      if (i > 0) out += ',';
      out += std::to_string(workload.placement[i]);
    }
    out += "\n";
  }
  out += "  keys " + std::to_string(workload.keys) + "\n";
  out += "  keying ";
  switch (workload.keying) {
    case Keying::Uniform: out += "uniform"; break;
    case Keying::Single: out += "single"; break;
    case Keying::Zipfian:
      out += "zipfian " + float_str(workload.zipf_theta);
      break;
  }
  out += "\n  arrival ";
  switch (workload.arrival.kind) {
    case ArrivalKind::Closed: out += "closed"; break;
    case ArrivalKind::Poisson:
      out += "poisson " + float_str(workload.arrival.rate);
      break;
    case ArrivalKind::Diurnal:
      out += "diurnal " + float_str(workload.arrival.rate) + " period " +
             time_str(workload.arrival.period) + " low " +
             float_str(workload.arrival.low);
      break;
  }
  out += "\n";
  out += "  value " + std::to_string(workload.value_size) + "\n";
  out += "  warmup " + time_str(workload.warmup) + "\n";
  out += "  measure " + time_str(workload.measure) + "\n";
  out += "}\n";
  if (!faults.empty()) {
    out += "\nfaults {\n";
    std::string_view rest = faults;
    while (!rest.empty()) {
      size_t semi = rest.find(';');
      std::string_view clause = rest.substr(0, semi);
      while (!clause.empty() && clause.front() == ' ') {
        clause.remove_prefix(1);
      }
      out += "  ";
      out += clause;
      out += "\n";
      if (semi == std::string_view::npos) break;
      rest.remove_prefix(semi + 1);
    }
    out += "}\n";
  }
  return out;
}

size_t ScenarioSpec::num_cells() const {
  return protocols.size() * topology.profiles.size() *
         topology.shards.size() * topology.versions.size() *
         workload.mixes.size() * workload.clients.size() *
         static_cast<size_t>(seeds);
}

std::string Cell::label() const {
  std::string out = to_string(protocol());
  out += "/";
  out += profile();
  out += "/mix";
  out += float_str(mix());
  out += "/c";
  out += std::to_string(clients());
  if (shards() != 1) {
    // Only sharded cells carry the segment: single-shard labels (and the
    // golden checksums pinned to them) are unchanged from PR 6.
    out += "/sh";
    out += std::to_string(shards());
  }
  if (!versions().empty()) {
    // Likewise only mixed-version cells: default fleets keep their
    // pre-upgrade labels.
    out += "/v";
    out += versions();
  }
  out += "/s";
  out += std::to_string(seed);
  return out;
}

std::vector<Cell> expand(const ScenarioSpec& spec) {
  std::vector<Cell> cells;
  cells.reserve(spec.num_cells());
  for (Protocol proto : spec.protocols) {
    for (const std::string& profile : spec.topology.profiles) {
      for (int shards : spec.topology.shards) {
        for (const std::string& versions : spec.topology.versions) {
          for (double mix : spec.workload.mixes) {
            for (int clients : spec.workload.clients) {
              for (int s = 0; s < spec.seeds; ++s) {
                Cell cell;
                cell.point = spec;
                cell.point.protocols = {proto};
                cell.point.topology.profiles = {profile};
                cell.point.topology.shards = {shards};
                cell.point.topology.versions = {versions};
                cell.point.workload.mixes = {mix};
                cell.point.workload.clients = {clients};
                cell.point.seeds = 1;
                cell.seed = spec.base_seed + static_cast<uint64_t>(s);
                cell.point.base_seed = cell.seed;
                cells.push_back(std::move(cell));
              }
            }
          }
        }
      }
    }
  }
  return cells;
}

std::vector<int> place_clients(int total, const std::vector<int>& weights) {
  std::vector<int> w = weights.empty() ? std::vector<int>{1, 1, 1} : weights;
  int64_t sum = 0;
  for (int x : w) sum += x;
  std::vector<int> out(w.size(), 0);
  if (sum <= 0 || total <= 0) return out;
  // Largest-remainder apportionment, ties to the lower site index.
  std::vector<int64_t> rem(w.size(), 0);
  int assigned = 0;
  for (size_t i = 0; i < w.size(); ++i) {
    int64_t num = static_cast<int64_t>(total) * w[i];
    out[i] = static_cast<int>(num / sum);
    rem[i] = num % sum;
    assigned += out[i];
  }
  while (assigned < total) {
    size_t best = 0;
    int64_t best_rem = -1;
    for (size_t i = 0; i < w.size(); ++i) {
      if (w[i] > 0 && rem[i] > best_rem) {
        best = i;
        best_rem = rem[i];
      }
    }
    out[best] += 1;
    rem[best] = -2;  // consumed; next round picks another site
    assigned += 1;
  }
  return out;
}

}  // namespace music::scn
