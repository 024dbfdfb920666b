// perfbench driver: the timed half of the repository benchmark. run.py (the
// other half) builds this program, has it generate the inputs, runs one
// workload, and turns the raw samples it prints into metrics.
//
//   perfbench_driver gen --seed N --bytes B --xml FILE --snapshot FILE
//       Generates an XMark document, writes it out as XML, parses those bytes
//       back and saves a snapshot of the parsed document.
//   perfbench_driver run --data DIR --docs D --engine ws|wm --op-cost-ms X
//       --cold 0|1 --seconds S --trace 0|1 --setup-reps N [--spans FILE]
//       [--perturb-reference 0|1]
//       Reads DIR/doc<i>.xml and DIR/doc<i>.snap for i < D. Set-up (parse +
//       index, N times; reference answers; fingerprint), then a closed loop
//       of one client for S seconds: each request is one complete query
//       (cold: snapshot load + index build first) cycling through the
//       documents and Q1, Q2, Q3, checked against the rewriting baseline's
//       scores. Prints one JSON object with the raw samples.
//   perfbench_driver selftest
//       Checks the answer check itself.
//
// With --trace 1 every other pass over the documents is traced: a span on
// the exec::MonotonicNs clock around each public call (request span as
// parent), and RunTopK collects its latency histograms. The untraced passes
// give the overhead baseline. End-to-end numbers come from --trace 0 runs
// only.
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "bench/common.h"
#include "util/json.h"
#include "whirlpool/whirlpool.h"
#include "xmlgen/xmark.h"

namespace whirlpool::perfbench {
namespace {

using util::JsonEscape;
using util::JsonNumber;

constexpr double kScoreTolerance = 1e-9;
constexpr int kNumQueries = 3;

// ---------------------------------------------------------------------------
// Answer check

/// Returns "" when `result` is a complete answer whose score vector matches
/// `reference` (same count, each score within kScoreTolerance at the same
/// rank), else why it does not. Roots are not compared: tied answers may
/// legitimately differ between engines.
std::string CheckAnswers(const Result<exec::TopKResult>& result,
                         const std::vector<double>& reference) {
  if (!result.ok()) return "error: " + result.status().ToString();
  if (result->approximate) return "approximate result";
  const auto& answers = result->answers;
  if (answers.size() != reference.size()) {
    return "answer count " + std::to_string(answers.size()) + " != reference " +
           std::to_string(reference.size());
  }
  for (size_t i = 0; i < answers.size(); ++i) {
    if (!(std::fabs(answers[i].score - reference[i]) <= kScoreTolerance)) {
      return "score[" + std::to_string(i) + "] " + JsonNumber(answers[i].score) +
             " != reference " + JsonNumber(reference[i]);
    }
  }
  return "";
}

int SelfTest() {
  int failures = 0;
  auto expect = [&](bool cond, const char* what) {
    std::printf("%s %s\n", cond ? "ok  " : "FAIL", what);
    if (!cond) ++failures;
  };
  auto make = [](std::vector<double> scores) {
    exec::TopKResult r;
    for (double s : scores) {
      exec::Answer a;
      a.score = s;
      r.answers.push_back(a);
    }
    return Result<exec::TopKResult>(std::move(r));
  };
  const std::vector<double> ref = {7.0, 7.0, 5.0};
  expect(CheckAnswers(make({7.0, 7.0, 5.0}), ref).empty(), "identical scores pass");
  expect(CheckAnswers(make({7.0, 7.0, 5.0 + 1e-12}), ref).empty(),
         "difference below 1e-9 passes");
  expect(!CheckAnswers(make({7.0, 7.0, 5.0 + 1e-6}), ref).empty(),
         "wrong score vector fails");
  expect(!CheckAnswers(make({7.0, 5.0, 7.0}), ref).empty(), "reordered scores fail");
  expect(!CheckAnswers(make({7.0, 7.0}), ref).empty(), "missing answer fails");
  expect(!CheckAnswers(make({7.0, 7.0, 5.0, 5.0}), ref).empty(), "extra answer fails");
  expect(!CheckAnswers(make({7.0, 7.0, std::nan("")}), ref).empty(), "NaN score fails");
  expect(!CheckAnswers(Result<exec::TopKResult>(Status::Internal("boom")), ref).empty(),
         "error status fails");
  auto approx = make({7.0, 7.0, 5.0});
  approx->approximate = true;
  expect(!CheckAnswers(approx, ref).empty(), "approximate result fails");
  std::printf("selftest: %d failure(s)\n", failures);
  return failures == 0 ? 0 : 1;
}

// ---------------------------------------------------------------------------
// Spans

/// Names of the timed public calls, in pipeline order.
enum Layer { kLoadSnapshot, kIndexBuild, kParseXPath, kTfIdf, kPlanBuild, kRunTopK, kNumLayers };
constexpr const char* kLayerNames[kNumLayers] = {
    "xml::LoadSnapshot",         "index::TagIndex",        "query::ParseXPath",
    "score::ComputeTfIdf",       "exec::QueryPlan::Build", "exec::RunTopK"};

struct Span {
  uint32_t request;  ///< 0 = set-up
  const char* name;
  uint64_t start_ns;
  uint64_t end_ns;
};

/// Records spans when enabled; otherwise Time() just calls through.
class SpanLog {
 public:
  bool enabled = false;
  std::vector<Span> spans;

  template <typename F>
  auto Time(uint32_t request, const char* name, F&& fn) {
    if (!enabled) return fn();
    const uint64_t start = exec::MonotonicNs();
    auto out = fn();
    spans.push_back({request, name, start, exec::MonotonicNs()});
    return out;
  }

  /// Writes the spans as a Chrome trace (ts relative to the first span).
  void WriteChromeTrace(const std::string& path) const {
    std::ofstream out(path, std::ios::binary);
    const uint64_t t0 = spans.empty() ? 0 : spans.front().start_ns;
    out << "{\"traceEvents\":[";
    for (size_t i = 0; i < spans.size(); ++i) {
      const Span& s = spans[i];
      out << (i ? ",\n" : "\n") << "{\"name\":\"" << JsonEscape(s.name)
          << "\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":"
          << JsonNumber(static_cast<double>(s.start_ns - t0) / 1e3)
          << ",\"dur\":" << JsonNumber(static_cast<double>(s.end_ns - s.start_ns) / 1e3)
          << ",\"args\":{\"request\":" << s.request << "}}";
    }
    out << "\n]}\n";
  }
};

// ---------------------------------------------------------------------------
// Flags

struct Flags {
  std::map<std::string, std::string> values;

  static Flags Parse(int argc, char** argv, int first) {
    Flags f;
    for (int i = first; i + 1 < argc; i += 2) {
      if (std::strncmp(argv[i], "--", 2) != 0) {
        std::fprintf(stderr, "unexpected argument %s\n", argv[i]);
        std::exit(2);
      }
      f.values[argv[i] + 2] = argv[i + 1];
    }
    if ((argc - first) % 2 != 0) {
      std::fprintf(stderr, "flag %s has no value\n", argv[argc - 1]);
      std::exit(2);
    }
    return f;
  }
  std::string Str(const std::string& name, const char* def = nullptr) const {
    auto it = values.find(name);
    if (it != values.end()) return it->second;
    if (def == nullptr) {
      std::fprintf(stderr, "missing --%s\n", name.c_str());
      std::exit(2);
    }
    return def;
  }
  double Num(const std::string& name, const char* def = nullptr) const {
    return std::atof(Str(name, def).c_str());
  }
};

[[noreturn]] void Die(const std::string& what) {
  std::fprintf(stderr, "perfbench_driver: %s\n", what.c_str());
  std::exit(1);
}

uint64_t FileBytes(const std::string& path) {
  std::error_code ec;
  const auto n = std::filesystem::file_size(path, ec);
  if (ec) Die("cannot stat " + path);
  return n;
}

// ---------------------------------------------------------------------------
// gen

int Gen(const Flags& flags) {
  xmlgen::XMarkOptions opts;
  opts.seed = static_cast<uint64_t>(std::strtoull(flags.Str("seed").c_str(), nullptr, 10));
  opts.target_bytes = static_cast<size_t>(flags.Num("bytes"));
  const std::string xml_path = flags.Str("xml");
  const std::string snap_path = flags.Str("snapshot");
  std::string xml;
  {
    auto doc = xmlgen::GenerateXMark(opts);
    xml = xml::SerializeDocument(*doc);
  }
  {
    std::ofstream out(xml_path, std::ios::binary);
    out.write(xml.data(), static_cast<std::streamsize>(xml.size()));
    if (!out) Die("cannot write " + xml_path);
  }
  auto parsed = xml::ParseDocument(xml);
  if (!parsed.ok()) Die("generated XML does not parse: " + parsed.status().ToString());
  const Status st = xml::SaveSnapshot(**parsed, snap_path);
  if (!st.ok()) Die("cannot save snapshot: " + st.ToString());
  std::printf("{\"nodes\":%zu,\"xml_bytes\":%zu}\n", (*parsed)->num_nodes(), xml.size());
  return 0;
}

// ---------------------------------------------------------------------------
// run

/// One document of the workload: its files, its set-up copy (kept unless
/// the workload is cold), each query's reference scores and its fingerprint.
struct Corpus {
  std::string xml_path;
  std::string snapshot_path;
  std::unique_ptr<xml::Document> doc;
  std::unique_ptr<index::TagIndex> idx;
  std::vector<double> reference[kNumQueries];  ///< rewriting baseline, best first
  size_t nodes = 0;
  size_t item_roots = 0;
  uint64_t ws_ops[kNumQueries] = {};  ///< W-S server ops per query
};

/// One request's record; the traced-only fields stay zero otherwise.
struct Outcome {
  int corpus = 0;
  int qnum = 0;
  bool traced = false;
  uint64_t latency_ns = 0;
  std::string error;  ///< "" = answers match the reference
  uint64_t layer_ns[kNumLayers] = {};
  exec::MetricsSnapshot metrics;
};

/// Loads a snapshot, failing the benchmark on error.
std::unique_ptr<xml::Document> MustLoadSnapshot(const std::string& path) {
  auto doc = xml::LoadSnapshot(path);
  if (!doc.ok()) Die("snapshot load failed: " + doc.status().ToString());
  return std::move(doc).value();
}

/// One complete query against corpus `c` (cold: from its snapshot).
Outcome Request(const Corpus& c, int corpus, int qnum, bool cold,
                const exec::ExecOptions& options, uint32_t id, SpanLog& log) {
  Outcome out;
  out.corpus = corpus;
  out.qnum = qnum;
  out.traced = log.enabled;
  const size_t first_span = log.spans.size();
  const uint64_t start = exec::MonotonicNs();
  std::unique_ptr<xml::Document> cold_doc;
  std::unique_ptr<index::TagIndex> cold_idx;
  if (cold) {
    cold_doc = log.Time(id, kLayerNames[kLoadSnapshot],
                        [&] { return MustLoadSnapshot(c.snapshot_path); });
    cold_idx = log.Time(id, kLayerNames[kIndexBuild],
                        [&] { return std::make_unique<index::TagIndex>(*cold_doc); });
  }
  const index::TagIndex& idx = cold ? *cold_idx : *c.idx;
  auto pattern = log.Time(id, kLayerNames[kParseXPath],
                          [&] { return query::ParseXPath(bench::QueryXPath(qnum)); });
  if (!pattern.ok()) {
    out.error = "parse: " + pattern.status().ToString();
  } else {
    auto scoring = log.Time(id, kLayerNames[kTfIdf], [&] {
      return score::ScoringModel::ComputeTfIdf(idx, *pattern, score::Normalization::kSparse);
    });
    auto plan = log.Time(id, kLayerNames[kPlanBuild], [&] {
      return exec::QueryPlan::Build(idx, *pattern, std::move(scoring));
    });
    if (!plan.ok()) {
      out.error = "plan: " + plan.status().ToString();
    } else {
      exec::ExecOptions opts = options;
      opts.collect_latencies = log.enabled;
      auto result = log.Time(id, kLayerNames[kRunTopK], [&] { return exec::RunTopK(*plan, opts); });
      out.error = CheckAnswers(result, c.reference[qnum - 1]);
      if (result.ok()) out.metrics = result->metrics;
    }
  }
  const uint64_t end = exec::MonotonicNs();
  out.latency_ns = end - start;
  if (log.enabled) {
    for (size_t i = first_span; i < log.spans.size(); ++i) {
      const Span& s = log.spans[i];
      for (int l = 0; l < kNumLayers; ++l) {
        if (s.name == kLayerNames[l]) out.layer_ns[l] += s.end_ns - s.start_ns;
      }
    }
    log.spans.push_back({id, "request", start, end});
  }
  return out;
}

std::string OutcomeJson(const Outcome& o) {
  const auto& m = o.metrics;
  std::string j = "{\"doc\":" + std::to_string(o.corpus) + ",\"q\":" + std::to_string(o.qnum) +
                  ",\"traced\":" + (o.traced ? "true" : "false") +
                  ",\"ns\":" + std::to_string(o.latency_ns) +
                  ",\"ok\":" + (o.error.empty() ? "true" : "false") +
                  ",\"server_ops\":" + std::to_string(m.server_operations);
  if (!o.error.empty()) j += ",\"error\":\"" + JsonEscape(o.error) + "\"";
  if (o.traced) {
    j += ",\"layers_ns\":{";
    for (int l = 0; l < kNumLayers; ++l) {
      j += std::string(l ? "," : "") + "\"" + kLayerNames[l] + "\":" +
           std::to_string(o.layer_ns[l]);
    }
    uint64_t peak = 0;
    for (uint64_t d : m.adaptive.queue_peak_depth) peak = std::max(peak, d);
    j += "},\"matches_created\":" + std::to_string(m.matches_created) +
         ",\"matches_pruned\":" + std::to_string(m.matches_pruned) +
         ",\"matches_completed\":" + std::to_string(m.matches_completed) +
         ",\"routing_decisions\":" + std::to_string(m.routing_decisions) +
         ",\"server_op_p50_us\":" + JsonNumber(m.server_op_latency.p50_us) +
         ",\"queue_wait_p50_us\":" + JsonNumber(m.queue_wait_latency.p50_us) +
         ",\"queue_peak_depth\":" + std::to_string(peak);
  }
  return j + "}";
}

/// Renders `n` values produced by `fn(i)` as a JSON array.
template <typename F>
std::string JsonArray(size_t n, F&& fn) {
  std::string j = "[";
  for (size_t i = 0; i < n; ++i) j += (i ? "," : "") + fn(i);
  return j + "]";
}

int Run(const Flags& flags) {
  const std::string data = flags.Str("data");
  const int num_docs = static_cast<int>(flags.Num("docs"));
  const bool cold = flags.Num("cold") != 0;
  const std::string engine = flags.Str("engine");
  if (engine != "ws" && engine != "wm") Die("--engine must be ws or wm");
  if (num_docs < 1) Die("--docs must be >= 1");
  exec::ExecOptions options;
  options.engine = engine == "wm" ? exec::EngineKind::kWhirlpoolM : exec::EngineKind::kWhirlpoolS;
  options.k = 15;
  options.semantics = exec::MatchSemantics::kRelaxed;
  options.aggregation = exec::ScoreAggregation::kMaxTuple;
  options.routing = exec::RoutingStrategy::kMinAlive;
  options.op_cost_seconds = flags.Num("op-cost-ms") / 1e3;
  const double seconds = flags.Num("seconds");
  const bool trace = flags.Num("trace") != 0;
  const int setup_reps = std::max(1, static_cast<int>(flags.Num("setup-reps")));
  const bool perturb = flags.Num("perturb-reference", "0") != 0;

  SpanLog log;
  log.enabled = trace;
  std::vector<Corpus> corpora(static_cast<size_t>(num_docs));
  for (int d = 0; d < num_docs; ++d) {
    Corpus& c = corpora[static_cast<size_t>(d)];
    c.xml_path = data + "/doc" + std::to_string(d) + ".xml";
    c.snapshot_path = data + "/doc" + std::to_string(d) + ".snap";
    // Loaded before the parsed copies exist so the two never share the peak.
    c.nodes = log.Time(0, kLayerNames[kLoadSnapshot],
                       [&] { return MustLoadSnapshot(c.snapshot_path); })->num_nodes();
  }

  // Set-up: parse + index every document, timed setup_reps times; the last
  // copies are kept.
  std::vector<double> setup_s;
  for (int r = 0; r < setup_reps; ++r) {
    for (Corpus& c : corpora) {
      c.idx.reset();
      c.doc.reset();
    }
    const uint64_t t0 = exec::MonotonicNs();
    for (Corpus& c : corpora) {
      c.doc = log.Time(0, "xml::ParseFile", [&] {
        auto d = xml::ParseFile(c.xml_path);
        if (!d.ok()) Die("XML parse failed: " + d.status().ToString());
        return std::move(d).value();
      });
      c.idx = log.Time(0, kLayerNames[kIndexBuild],
                       [&] { return std::make_unique<index::TagIndex>(*c.doc); });
    }
    setup_s.push_back(static_cast<double>(exec::MonotonicNs() - t0) / 1e9);
  }

  // Reference answers, and the fingerprint's W-S op counts (which repeat
  // exactly for a given document).
  std::string reference_error;
  for (Corpus& c : corpora) {
    if (c.nodes != c.doc->num_nodes()) Die("snapshot and XML disagree on node count");
    c.item_roots = c.idx->Nodes("item").size();
    for (int qnum = 1; qnum <= kNumQueries; ++qnum) {
      const bench::Compiled compiled = bench::Compile(*c.idx, bench::QueryXPath(qnum));
      exec::ExecOptions opts = options;
      opts.engine = exec::EngineKind::kWhirlpoolS;
      opts.op_cost_seconds = 0.0;
      auto ref = exec::RunRewritingBaseline(*compiled.plan, opts);
      if (!ref.ok()) Die("rewriting baseline failed: " + ref.status().ToString());
      std::vector<double>& scores = c.reference[qnum - 1];
      for (const auto& a : ref->answers) scores.push_back(a.score);
      if (scores.empty()) Die("empty reference answer");
      auto ws = exec::RunTopK(*compiled.plan, opts);
      const std::string why = CheckAnswers(ws, scores);
      if (!why.empty() && reference_error.empty()) {
        reference_error = c.xml_path + " Q" + std::to_string(qnum) +
                          " W-S vs rewriting baseline: " + why;
      }
      c.ws_ops[qnum - 1] = ws.ok() ? ws->metrics.server_operations : 0;
      if (perturb) scores.back() += 1e-6;
    }
    if (cold) {
      c.idx.reset();
      c.doc.reset();
    }
  }

  // A warm-up pass over the first document (not recorded), then the closed
  // loop: one client, each request issued when the previous one returned.
  SpanLog off;
  for (int qnum = 1; qnum <= kNumQueries; ++qnum) {
    Request(corpora[0], 0, qnum, cold, options, 0, off);
  }
  std::vector<Outcome> outcomes;
  const uint64_t loop_start = exec::MonotonicNs();
  const uint64_t deadline = loop_start + static_cast<uint64_t>(seconds * 1e9);
  uint32_t id = 0;
  for (uint64_t cycle = 0; exec::MonotonicNs() < deadline; ++cycle) {
    // With --trace 1, every other pass over the documents is traced.
    SpanLog& cycle_log = (trace && cycle % 2 == 1) ? log : off;
    for (size_t d = 0; d < corpora.size(); ++d) {
      for (int qnum = 1; qnum <= kNumQueries && exec::MonotonicNs() < deadline; ++qnum) {
        outcomes.push_back(
            Request(corpora[d], static_cast<int>(d), qnum, cold, options, ++id, cycle_log));
      }
    }
  }
  const double loop_s = static_cast<double>(exec::MonotonicNs() - loop_start) / 1e9;

  if (trace && flags.values.count("spans")) log.WriteChromeTrace(flags.Str("spans"));

  struct rusage usage;
  getrusage(RUSAGE_SELF, &usage);

  std::string setup_layers = "{";
  for (const char* name : {"xml::ParseFile", kLayerNames[kIndexBuild], kLayerNames[kLoadSnapshot]}) {
    std::vector<uint64_t> ns;
    for (const Span& s : log.spans) {
      if (s.request == 0 && std::strcmp(s.name, name) == 0) ns.push_back(s.end_ns - s.start_ns);
    }
    setup_layers += std::string(setup_layers.size() > 1 ? "," : "") + "\"" + name + "\":" +
                    JsonArray(ns.size(), [&](size_t i) { return std::to_string(ns[i]); });
  }
  setup_layers += "}";
  auto per_doc = [&](auto field) {
    return JsonArray(corpora.size(), [&](size_t d) { return field(corpora[d]); });
  };

  std::printf(
      "{\"compiler\":\"%s\",\"build_type\":\"%s\",\"setup_s\":%s,\"setup_layers_ns\":%s,"
      "\"fingerprint\":{\"docs\":%d,\"nodes\":%s,\"xml_bytes\":%s,\"snapshot_bytes\":%s,"
      "\"item_roots\":%s,\"ws_server_ops\":%s},\"reference_error\":\"%s\",\"loop_s\":%s,"
      "\"peak_rss_kb\":%ld,\"requests\":[",
      JsonEscape(__VERSION__).c_str(), PERFBENCH_BUILD_TYPE,
      JsonArray(setup_s.size(), [&](size_t i) { return JsonNumber(setup_s[i]); }).c_str(),
      setup_layers.c_str(), num_docs,
      per_doc([](const Corpus& c) { return std::to_string(c.nodes); }).c_str(),
      per_doc([](const Corpus& c) { return std::to_string(FileBytes(c.xml_path)); }).c_str(),
      per_doc([](const Corpus& c) { return std::to_string(FileBytes(c.snapshot_path)); }).c_str(),
      per_doc([](const Corpus& c) { return std::to_string(c.item_roots); }).c_str(),
      per_doc([](const Corpus& c) {
        return JsonArray(kNumQueries, [&](size_t q) { return std::to_string(c.ws_ops[q]); });
      }).c_str(),
      JsonEscape(reference_error).c_str(), JsonNumber(loop_s).c_str(), usage.ru_maxrss);
  for (size_t i = 0; i < outcomes.size(); ++i) {
    std::printf("%s\n%s", i ? "," : "", OutcomeJson(outcomes[i]).c_str());
  }
  std::printf("\n]}\n");
  return 0;
}

}  // namespace
}  // namespace whirlpool::perfbench

int main(int argc, char** argv) {
  using namespace whirlpool::perfbench;
  const std::string mode = argc > 1 ? argv[1] : "";
  if (mode == "selftest") return SelfTest();
  if (mode == "gen") return Gen(Flags::Parse(argc, argv, 2));
  if (mode == "run") return Run(Flags::Parse(argc, argv, 2));
  std::fprintf(stderr, "usage: perfbench_driver gen|run|selftest [--flag value ...]\n");
  return 2;
}
