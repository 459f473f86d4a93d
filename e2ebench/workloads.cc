#include "workloads.h"

#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <functional>
#include <memory>

#include "automata/trie.h"
#include "inference/query_eval.h"
#include "ocr/corpus.h"
#include "oracle.h"
#include "rdbms/service.h"
#include "rdbms/session.h"
#include "rdbms/shard.h"
#include "rdbms/staccato_db.h"
#include "staccato/chunking.h"
#include "trace.h"
#include "util/strings.h"

namespace e2ebench {

using namespace staccato;
using namespace staccato::rdbms;

namespace {

// ---- Fixed make-up of the inputs (README.md, "Inputs") ---------------------

constexpr size_t kLinesPerPage = 256;
constexpr size_t kNumAns = 10;
constexpr int kSetups = 3;            // set-ups per run; setup_s is their median
constexpr size_t kBurstDocs = 192;    // appends after the read phase's checks
constexpr size_t kProbeDocs = 24;     // documents the layer probes sample
constexpr size_t kChunkCheckDocs = 16;
// The traced run alternates untraced and traced blocks of this length, so
// both halves see the same machine state.
constexpr uint64_t kTraceBlockNs = 250'000'000;

LoadOptions BenchLoad() {
  LoadOptions o;
  o.kmap_k = 10;
  o.staccato.m = 25;
  o.staccato.k = 10;
  return o;
}

Result<OcrDataset> MakeDataset(DatasetKind kind, size_t pages, uint64_t seed) {
  CorpusSpec spec;
  spec.kind = kind;
  spec.num_pages = pages;
  spec.lines_per_page = kLinesPerPage;
  spec.seed = seed;
  OcrNoiseModel noise;
  noise.alternatives = 8;
  return GenerateOcrDataset(spec, noise);
}

OcrDataset Prefix(const OcrDataset& d, size_t n) {
  OcrDataset p;
  p.corpus.name = d.corpus.name;
  p.corpus.num_pages = d.corpus.num_pages;
  p.corpus.lines.assign(d.corpus.lines.begin(), d.corpus.lines.begin() + n);
  p.corpus.page_of_line.assign(d.corpus.page_of_line.begin(),
                               d.corpus.page_of_line.begin() + n);
  p.sfas.assign(d.sfas.begin(), d.sfas.begin() + n);
  return p;
}

int64_t YearOf(const OcrDataset& d, size_t line) {
  return kBaseYear + d.corpus.page_of_line[line];
}

DocumentInput DocInput(const OcrDataset& d, size_t line) {
  DocumentInput in;
  in.doc_name = StringPrintf("%s-page-%u", d.corpus.name.c_str(),
                             d.corpus.page_of_line[line]);
  in.year = YearOf(d, line);
  in.truth = d.corpus.lines[line];
  in.sfa = d.sfas[line];
  return in;
}

/// Oracle rows for documents whose generated line is `src[doc]`.
std::vector<OracleDoc> OracleDocs(const OcrDataset& d,
                                  const std::vector<size_t>& src) {
  std::vector<OracleDoc> docs;
  docs.reserve(src.size());
  for (size_t line : src) {
    docs.push_back({&d.sfas[line], &d.corpus.lines[line], YearOf(d, line)});
  }
  return docs;
}

std::vector<size_t> Iota(size_t n) {
  std::vector<size_t> v(n);
  for (size_t i = 0; i < n; ++i) v[i] = i;
  return v;
}

uint64_t TextBytes(const OcrDataset& d, const std::vector<size_t>& src) {
  uint64_t b = 0;
  for (size_t line : src) b += d.corpus.lines[line].size();
  return b;
}

/// Bytes of every regular file under `dir`; with `name`, only files so named.
uint64_t TreeBytes(const std::string& dir, const char* name = nullptr) {
  namespace fs = std::filesystem;
  uint64_t total = 0;
  std::error_code ec;
  for (auto it = fs::recursive_directory_iterator(dir, ec);
       !ec && it != fs::recursive_directory_iterator(); it.increment(ec)) {
    if (!it->is_regular_file(ec)) continue;
    if (name != nullptr && it->path().filename() != name) continue;
    total += it->file_size(ec);
  }
  return total;
}

double PeakRssMb() {
  struct rusage ru {};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

double MsSince(uint64_t start_ns) { return SecondsSince(start_ns) * 1e3; }

// ---- The database under test, sharded or not --------------------------------

struct Db {
  std::unique_ptr<StaccatoDb> one;
  std::unique_ptr<ShardedDb> sharded;

  Status Load(const OcrDataset& d, const LoadOptions& o) {
    return one ? one->Load(d, o) : sharded->Load(d, o);
  }
  Status BuildIndex(const std::vector<std::string>& dict) {
    return one ? one->BuildInvertedIndex(dict)
               : sharded->BuildInvertedIndex(dict);
  }
  Status Append(const DocumentInput& d) {
    return one ? one->Append(d) : sharded->Append(d);
  }
  Status Checkpoint() { return one ? one->Checkpoint() : sharded->Checkpoint(); }
  Status DropCaches() { return one ? one->DropCaches() : sharded->DropCaches(); }

  /// The partition holding global document `doc`, and its id there.
  StaccatoDb* Locate(DocId doc, DocId* local) const {
    if (one) {
      *local = doc;
      return one.get();
    }
    const std::shared_ptr<const ShardMap> map = sharded->map_snapshot();
    const size_t s = ShardOfDoc(doc, sharded->num_shards());
    const std::vector<DocId>& l2g = map->local_to_global[s];
    auto it = std::lower_bound(l2g.begin(), l2g.end(), doc);
    if (it == l2g.end() || *it != doc) return nullptr;
    *local = static_cast<DocId>(it - l2g.begin());
    return sharded->shard(s);
  }

  Result<std::string> StaccatoBlob(DocId doc) const {
    DocId local = 0;
    StaccatoDb* part = Locate(doc, &local);
    if (part == nullptr) return Status::NotFound("doc outside the shard map");
    return part->ReadStaccatoBlob(local);
  }

  cache::CacheStats CacheTotals() const {
    std::vector<cache::BufferCache*> caches;
    if (one) {
      caches.push_back(one->buffer_cache());
    } else {
      for (size_t i = 0; i < sharded->num_shards(); ++i) {
        caches.push_back(sharded->shard(i)->buffer_cache());
      }
    }
    std::sort(caches.begin(), caches.end());
    caches.erase(std::unique(caches.begin(), caches.end()), caches.end());
    cache::CacheStats t;
    for (cache::BufferCache* c : caches) {
      if (c == nullptr) continue;
      const cache::CacheStats s = c->stats();
      t.hits += s.hits;
      t.misses += s.misses;
      t.evictions += s.evictions;
      t.bytes_in_use += s.bytes_in_use;
    }
    return t;
  }
};

// ---- One run's shared state ---------------------------------------------

/// One request of the timed phase.
struct Sample {
  double ms = 0.0;
  bool traced = false;
  bool ok = true;
  uint32_t key = 0;      ///< which distinct query (or batch) it ran
  uint32_t queries = 1;  ///< queries it completed (batch members count)
  /// The answer list of each query it ran, checked after the phase.
  std::vector<std::vector<Answer>> answers;
};

struct Run {
  explicit Run(const Options& o, RunResult* r) : opts(o), out(r) {}

  const Options& opts;
  RunResult* out;
  Tracer tracer;
  LayerSamples layers;
  std::atomic<uint64_t> next_request{1};
  std::vector<double> setup_s;
  uint64_t phase_start_ns = 0;
  uint64_t phase_end_ns = 0;
  double phase_seconds = 0.0;  ///< measured: until the last client stopped
  /// Peak resident set when the timed phase ends, before the checks build
  /// the oracle: the engine's memory and the inputs, not the checker's.
  double peak_rss_mb = 0.0;
  cache::CacheStats cache_before, cache_after;
  std::atomic<uint64_t> attempted{0};
  std::atomic<uint64_t> failed{0};
  std::mutex fail_mu;

  /// Whether a request starting at `t` is traced: in the traced run every
  /// other block is, so the untraced blocks give the overhead baseline.
  bool Traced(uint64_t t) const {
    return opts.trace && ((t - phase_start_ns) / kTraceBlockNs) % 2 == 1;
  }
  Tracer* TracerAt(uint64_t t) { return Traced(t) ? &tracer : nullptr; }
  /// Per-layer samples are kept only from traced requests.
  LayerSamples* LayersAt(uint64_t t) { return Traced(t) ? &layers : nullptr; }

  void Fail(const std::string& why) {
    std::lock_guard<std::mutex> lock(fail_mu);
    out->Fail(why);
  }
  /// Counts one attempted operation and, when `st` is an error, a failure.
  void Count(const Status& st, const char* what) {
    attempted.fetch_add(1, std::memory_order_relaxed);
    if (!st.ok()) {
      failed.fetch_add(1, std::memory_order_relaxed);
      std::lock_guard<std::mutex> lock(fail_mu);
      if (out->errors.size() < 20) {
        out->errors.push_back(std::string(what) + " failed: " + st.ToString());
      }
    }
  }

  /// Progress on stderr, with the seconds since the run started.
  void Log(const char* what) const {
    std::fprintf(stderr, "[%7.2fs] %s %s\n", SecondsSince(run_start_ns),
                 opts.workload.c_str(), what);
  }
  const uint64_t run_start_ns = NowNs();

  void BeginPhase() {
    phase_start_ns = NowNs();
    phase_end_ns =
        phase_start_ns + static_cast<uint64_t>(opts.seconds * 1e9);
  }
  void EndPhase() {
    phase_seconds = SecondsSince(phase_start_ns);
    peak_rss_mb = PeakRssMb();
    Log("timed phase done");
  }
};

/// Times `kSetups` complete set-ups; `setup(dir)` builds the fixture from
/// scratch (Open, Load, BuildInvertedIndex, prepare, warm-up) and the last
/// one is kept for the timed phase. `reset()` tears the previous one down.
Status RepeatSetup(Run* run, const std::string& dir,
                   const std::function<Status(const std::string&)>& setup,
                   const std::function<void()>& reset) {
  for (int i = 0; i < kSetups; ++i) {
    run->Log("set-up");
    reset();
    std::error_code ec;
    std::filesystem::remove_all(dir, ec);
    const uint64_t t0 = NowNs();
    STACCATO_RETURN_NOT_OK(setup(dir));
    run->setup_s.push_back(SecondsSince(t0));
  }
  return Status::OK();
}

/// Open → Load → BuildInvertedIndex, with the module spans and timings the
/// per-layer report uses.
Status OpenAndLoad(Run* run, Db* db, const std::string& dir, size_t shards,
                   const OcrDataset& data, const std::vector<std::string>& dict) {
  if (shards > 1) {
    ShardConfig cfg;
    cfg.shards = shards;
    STACCATO_ASSIGN_OR_RETURN(db->sharded, ShardedDb::Open(dir, cfg));
  } else {
    STACCATO_ASSIGN_OR_RETURN(db->one, StaccatoDb::Open(dir));
  }
  Tracer* tr = run->opts.trace ? &run->tracer : nullptr;
  uint64_t t = NowNs();
  {
    ScopedSpan span(tr, "load.load", 0);
    STACCATO_RETURN_NOT_OK(db->Load(data, BenchLoad()));
  }
  run->layers.Add("load.load_s", SecondsSince(t));
  t = NowNs();
  {
    ScopedSpan span(tr, "indexing.build", 0);
    STACCATO_RETURN_NOT_OK(db->BuildIndex(dict));
  }
  run->layers.Add("indexing.build_s", SecondsSince(t));
  return Status::OK();
}

Result<PreparedQuery> PrepareTimed(Run* run, Session* session, Approach a,
                                   const QueryOptions& q) {
  ScopedSpan span(run->opts.trace ? &run->tracer : nullptr, "session.prepare", 0);
  const uint64_t t = NowNs();
  Result<PreparedQuery> pq = session->Prepare(a, q);
  run->layers.Add("session.prepare_ms", MsSince(t));
  return pq;
}

/// The executor's own QueryStats, read as-is, into the per-layer samples.
void RecordQueryStats(LayerSamples* L, const QueryStats& st, double exec_ms) {
  L->Add("plan.candidate_gen_ms", st.stage.candidate_gen_s * 1e3);
  L->Add("plan.filter_ms", st.stage.filter_s * 1e3);
  L->Add("plan.fetch_eval_ms", st.stage.fetch_eval_s * 1e3);
  L->Add("plan.topk_ms", st.stage.topk_s * 1e3);
  L->Add("plan.candidates", static_cast<double>(st.candidates));
  L->Add("plan.index_postings", static_cast<double>(st.index_postings));
  L->Add("plan.eval_pruned", static_cast<double>(st.eval_pruned));
  L->Add("plan.eval_steps_saved", static_cast<double>(st.eval_steps_saved));
  L->Add("plan.plan_cache_hit_share", st.candidates_from_cache ? 1.0 : 0.0);
  // An unsharded database is one partition: its plan is the slowest shard.
  double slowest = st.stage.total_s;
  double median = st.stage.total_s;
  if (!st.shards.empty()) {
    std::vector<double> totals;
    for (const ShardStats& s : st.shards) totals.push_back(s.stage.total_s);
    slowest = *std::max_element(totals.begin(), totals.end());
    median = Median(totals);
  }
  L->Add("shard.slowest_ms", slowest * 1e3);
  L->Add("shard.skew", median > 0.0 ? slowest / median : 1.0);
  L->Add("shard.gather_ms", exec_ms - slowest * 1e3);
  L->Add("storage.blob_bytes_read", static_cast<double>(st.blob_bytes_read));
  L->Add("storage.heap_pages_read", static_cast<double>(st.heap_pages_read));
}

/// One solo query through the service's admission gate: Admit, Execute
/// under a QueryControl built from the service's default budget, Release —
/// the steps of QueryService::Execute, with a span around each call.
Status ServeQuery(Run* run, QueryService* svc, PreparedQuery* pq,
                  uint64_t t_start, uint64_t req, std::vector<Answer>* answers) {
  Tracer* tr = run->TracerAt(t_start);
  LayerSamples* L = run->LayersAt(t_start);
  {
    ScopedSpan span(tr, "service.admit", req);
    const uint64_t t = NowNs();
    Status st = svc->Admit();
    if (L != nullptr) L->Add("service.admit_wait_ms", MsSince(t));
    if (!st.ok()) return st;
  }
  QueryControl control(svc->config().default_budget);
  QueryStats stats;
  const uint64_t t = NowNs();
  Result<std::vector<Answer>> r = Status::Internal("not run");
  {
    ScopedSpan span(tr, "query.execute", req);
    r = pq->Execute(&control, &stats);
  }
  const double exec_ms = MsSince(t);
  svc->Release();
  if (!r.ok()) return r.status();
  *answers = std::move(*r);
  if (L != nullptr) RecordQueryStats(L, stats, exec_ms);
  return Status::OK();
}

ServiceConfig NoShedding(size_t slots, size_t clients) {
  ServiceConfig cfg;
  cfg.max_concurrent = slots;
  cfg.max_queued = std::max<size_t>(clients, 1);
  cfg.queue_timeout_ms = 600000.0;  // far above any query: nothing sheds
  return cfg;
}

/// Checks one answer list against the oracle; records a failure.
bool Verify(Run* run, Oracle* oracle, const std::string& what,
            const std::vector<Answer>& got, Approach a,
            const std::string& pattern, int64_t year, size_t num_ans,
            size_t n_docs, std::vector<Answer>* expected_out = nullptr) {
  Result<std::vector<Answer>> want =
      oracle->Expected(a, pattern, year, num_ans, n_docs);
  if (!want.ok()) {
    run->Fail(what + ": oracle failed: " + want.status().ToString());
    return false;
  }
  const std::string why = CheckAnswers(got, *want, num_ans, n_docs);
  if (!why.empty()) {
    run->Fail(what + ": " + why);
    return false;
  }
  if (expected_out != nullptr) *expected_out = std::move(*want);
  return true;
}

/// Precision at R = |truth| of one query, run through `execute_at(R)` and
/// verified against the oracle at that NumAns.
double RPrecisionOf(Run* run, Oracle* oracle, const std::string& what,
                    Approach a, const std::string& pattern, int64_t year,
                    size_t n_docs,
                    const std::function<Result<std::vector<Answer>>(size_t)>&
                        execute_at) {
  Result<std::vector<DocId>> truth = oracle->Truth(pattern, year);
  if (!truth.ok() || truth->empty()) {
    run->Fail(what + ": no ground truth");
    return 0.0;
  }
  Result<std::vector<Answer>> got = execute_at(truth->size());
  if (!got.ok()) {
    run->Fail(what + " at NumAns=R failed: " + got.status().ToString());
    return 0.0;
  }
  Verify(run, oracle, what + " at NumAns=R", *got, a, pattern, year,
         truth->size(), n_docs);
  return RPrecision(*got, *truth);
}

/// Demonstrates on a verified list that the checker rejects perturbations.
void SelfTestChecker(Run* run, const std::vector<Answer>& verified,
                     size_t n_docs) {
  const std::string why = CheckerSelfTest(verified, kNumAns, n_docs);
  if (!why.empty()) run->Fail("checker self-test: " + why);
}

std::vector<DocId> SpreadSample(size_t n_docs, size_t count) {
  std::vector<DocId> s;
  for (size_t i = 0; i < count && i < n_docs; ++i) {
    s.push_back(static_cast<DocId>(i * n_docs / std::min(count, n_docs)));
  }
  return s;
}

void CheckChunking(Run* run, Oracle* oracle) {
  run->Log("verification");
  const std::string why =
      oracle->CheckChunking(SpreadSample(oracle->num_docs(), kChunkCheckDocs));
  if (!why.empty()) run->Fail("chunking: " + why);
}

/// Appends `docs` one at a time after the read phase, then checkpoints.
void AppendBurst(Run* run, Db* db, const std::string& dir,
                   const std::vector<DocumentInput>& docs) {
  run->Log("append burst");
  Tracer* tr = run->opts.trace ? &run->tracer : nullptr;
  const uint64_t wal_before = TreeBytes(dir, "wal.log");
  std::vector<double> append_ms;
  for (const DocumentInput& d : docs) {
    const uint64_t t = NowNs();
    Status st;
    {
      ScopedSpan span(tr, "ingest.append", 0);
      st = db->Append(d);
    }
    run->Count(st, "append");
    if (!st.ok()) continue;
    append_ms.push_back(MsSince(t));
    run->layers.Add("ingest.append_ms", append_ms.back());
  }
  if (!append_ms.empty()) {
    run->layers.Add("wal.bytes_per_append",
                    static_cast<double>(TreeBytes(dir, "wal.log") - wal_before) /
                        static_cast<double>(append_ms.size()));
  }
  const uint64_t t = NowNs();
  Status st;
  {
    ScopedSpan span(tr, "ingest.checkpoint", 0);
    st = db->Checkpoint();
  }
  run->Count(st, "checkpoint");
  run->layers.Add("ingest.checkpoint_s", SecondsSince(t));
}

/// After the append burst and its Checkpoint, checks every query against
/// an oracle over all `total` documents, the appended ones included.
/// `execute_all` runs the queries in the order of `query_of`.
void VerifyAfterIngest(
    Run* run, Db* db, const OcrDataset& all, size_t total,
    const std::vector<std::pair<Approach, std::string>>& query_of,
    const std::function<Result<std::vector<std::vector<Answer>>>()>& execute_all) {
  run->Log("verification after ingest");
  Oracle oracle(OracleDocs(all, Iota(total)), BenchLoad(),
                [&](DocId d) { return db->StaccatoBlob(d); });
  Result<std::vector<std::vector<Answer>>> got = execute_all();
  run->Count(got.status(), "verify after ingest");
  if (!got.ok()) return;
  if (got->size() != query_of.size()) {
    run->Fail("after ingest: wrong number of answer lists");
    return;
  }
  for (size_t k = 0; k < query_of.size(); ++k) {
    const auto& [a, p] = query_of[k];
    Verify(run, &oracle,
           StringPrintf("after checkpoint: %s '%s'", ApproachName(a), p.c_str()),
           (*got)[k], a, p, 0, kNumAns, total);
  }
}

/// Single-module timings on a fixed sample of documents: blob Fetch cold
/// and warm, SFA decode both ways, the Eval DP, Staccato construction and
/// DFA compilation.
void LayerProbes(Run* run, Db* db, const OcrDataset& data,
                 const std::vector<std::string>& patterns, size_t n_docs) {
  run->Log("layer probes");
  Tracer* tr = &run->tracer;
  LayerSamples* L = &run->layers;
  const std::vector<DocId> sample = SpreadSample(n_docs, kProbeDocs);
  run->Count(db->DropCaches(), "drop caches");
  for (const char* pass : {"storage.fetch_cold_us", "storage.fetch_warm_us"}) {
    ScopedSpan span(tr, pass, 0);
    for (DocId doc : sample) {
      DocId local = 0;
      StaccatoDb* part = db->Locate(doc, &local);
      if (part == nullptr) continue;
      const uint64_t t = NowNs();
      Result<cache::BufferCache::Handle> h = part->FetchBlobCached(local, false);
      L->Add(pass, MsSince(t) * 1e3);
      run->Count(h.status(), "fetch");
    }
  }
  std::vector<std::string> blobs;
  for (DocId doc : sample) {
    Result<std::string> b = db->StaccatoBlob(doc);
    run->Count(b.status(), "blob read");
    if (b.ok()) blobs.push_back(std::move(*b));
  }
  constexpr int kReps = 20;
  SfaViewArena arena;
  SfaView view;
  {
    ScopedSpan span(tr, "sfa.view_decode", 0);
    for (const std::string& b : blobs) {
      const uint64_t t = NowNs();
      for (int r = 0; r < kReps; ++r) run->Count(view.Decode(b, &arena), "decode");
      L->Add("sfa.view_decode_us", MsSince(t) * 1e3 / kReps);
    }
  }
  std::vector<Sfa> decoded;
  {
    ScopedSpan span(tr, "sfa.deserialize", 0);
    for (const std::string& b : blobs) {
      const uint64_t t = NowNs();
      for (int r = 0; r < kReps; ++r) {
        Result<Sfa> s = Sfa::Deserialize(b);
        run->Count(s.status(), "deserialize");
        if (r == 0 && s.ok()) decoded.push_back(std::move(*s));
      }
      L->Add("sfa.deserialize_us", MsSince(t) * 1e3 / kReps);
    }
  }
  std::vector<Dfa> dfas;
  {
    ScopedSpan span(tr, "automata.dfa_compile", 0);
    for (const std::string& p : patterns) {
      const uint64_t t = NowNs();
      for (int r = 0; r < kReps; ++r) {
        Result<Dfa> d = Dfa::Compile(p, MatchMode::kContains);
        run->Count(d.status(), "dfa compile");
        if (r == 0 && d.ok()) dfas.push_back(std::move(*d));
      }
      L->Add("automata.dfa_compile_us", MsSince(t) * 1e3 / kReps);
    }
  }
  {
    ScopedSpan span(tr, "inference.dp", 0);
    EvalScratch scratch;
    double ns = 0.0;
    double steps = 0.0;
    for (size_t i = 0; i < blobs.size() && i < decoded.size(); ++i) {
      if (!view.Decode(blobs[i], &arena).ok()) continue;
      for (const Dfa& dfa : dfas) {
        EvalBound bound;
        const uint64_t t = NowNs();
        EvalSfaViewBounded(view, dfa, 0.0, &scratch, &bound);
        const double dt = static_cast<double>(NowNs() - t);
        L->Add("inference.dp_us", dt * 1e-3);
        L->Add("inference.dp_steps",
               static_cast<double>(CountEvalWork(decoded[i], dfa)));
        ns += dt;
        steps += static_cast<double>(bound.steps);
      }
    }
    L->Add("inference.dp_ns_per_step", steps > 0 ? ns / steps : 0.0);
  }
  {
    ScopedSpan span(tr, "staccato.approximate", 0);
    for (DocId doc : sample) {
      if (doc >= data.sfas.size()) continue;
      const uint64_t t = NowNs();
      Result<Sfa> s = ApproximateSfa(data.sfas[doc], BenchLoad().staccato);
      L->Add("staccato.approximate_ms", MsSince(t));
      run->Count(s.status(), "approximate");
    }
  }
}

/// Runs one ExecuteBatch (the batch probe of the workloads whose timed
/// phase does not batch) and records its batch-level counters.
void BatchProbe(Run* run, Session* session, const std::vector<PreparedQuery*>& qs,
                const std::function<void(size_t, const std::vector<Answer>&)>& verify) {
  BatchStats bs;
  const uint64_t t = NowNs();
  Result<std::vector<std::vector<Answer>>> r = Status::Internal("not run");
  {
    ScopedSpan span(&run->tracer, "batch.execute", 0);
    r = session->ExecuteBatch(qs, &bs);
  }
  const double ms = MsSince(t);
  run->Count(r.status(), "batch probe");
  if (!r.ok()) return;
  for (size_t i = 0; i < r->size(); ++i) verify(i, (*r)[i]);
  run->layers.Add("batch.distinct_docs_fetched",
                  static_cast<double>(bs.distinct_docs_fetched));
  run->layers.Add("batch.fetch_eval_ms",
                  bs.per_query.empty() ? ms : bs.per_query[0].stage.fetch_eval_s * 1e3);
}

// ---- Reporting --------------------------------------------------------------

struct Outcome {
  std::vector<Sample> samples;
  double tail_q = 0.99;
  double r_precision = 0.0;
  double bytes_per_text_byte = 0.0;
};

void Report(Run* run, const Outcome& o) {
  run->Log("done");
  RunResult* out = run->out;
  std::vector<double> lat, traced_lat;
  uint64_t queries = 0;
  for (const Sample& s : o.samples) {
    if (!s.ok) continue;
    queries += s.queries;
    (s.traced ? traced_lat : lat).push_back(s.ms);
  }
  if (!run->opts.trace && lat.size() * (1.0 - o.tail_q) < 10.0) {
    std::fprintf(stderr, "warning: %zu samples leave fewer than 10 beyond p%g\n",
                 lat.size(), o.tail_q * 100);
  }
  std::fprintf(stderr, "latency over %zu untraced requests: p50 %.3f p90 %.3f p95 %.3f "
               "p98 %.3f p99 %.3f ms\n", lat.size(), Median(lat), Percentile(lat, 0.90),
               Percentile(lat, 0.95), Percentile(lat, 0.98), Percentile(lat, 0.99));
  out->attempted = run->attempted.load();
  out->failed = run->failed.load();
  if (!run->opts.trace) {
    out->Add("query_p50_ms", Median(lat), "ms");
    out->Add("query_tail_ms", Percentile(lat, o.tail_q), "ms");
    out->Add("queries_per_s", static_cast<double>(queries) / run->phase_seconds, "1/s");
    out->Add("answer_r_precision", o.r_precision, "ratio");
    out->Add("bytes_per_text_byte", o.bytes_per_text_byte, "ratio");
    out->Add("setup_s", Median(run->setup_s), "s");
    out->Add("peak_rss_mb", run->peak_rss_mb, "MiB");
    return;
  }
  const LayerSamples& L = run->layers;
  auto mean = [&](const char* name, const char* unit) {
    out->Add(name, L.Mean(name), unit);
  };
  mean("service.admit_wait_ms", "ms");
  mean("session.prepare_ms", "ms");
  mean("automata.dfa_compile_us", "us");
  mean("plan.candidate_gen_ms", "ms");
  mean("plan.filter_ms", "ms");
  mean("plan.fetch_eval_ms", "ms");
  mean("plan.topk_ms", "ms");
  mean("plan.candidates", "count");
  mean("plan.index_postings", "count");
  mean("plan.eval_pruned", "count");
  mean("plan.eval_steps_saved", "count");
  mean("plan.plan_cache_hit_share", "ratio");
  mean("shard.slowest_ms", "ms");
  mean("shard.skew", "ratio");
  mean("shard.gather_ms", "ms");
  const cache::CacheStats& a = run->cache_before;
  const cache::CacheStats& b = run->cache_after;
  const double lookups = static_cast<double>((b.hits - a.hits) + (b.misses - a.misses));
  out->Add("cache.hit_ratio",
           lookups > 0 ? static_cast<double>(b.hits - a.hits) / lookups : 0.0,
           "ratio");
  out->Add("cache.evictions", static_cast<double>(b.evictions - a.evictions), "count");
  out->Add("cache.resident_mb", static_cast<double>(b.bytes_in_use) / (1 << 20), "MiB");
  mean("storage.blob_bytes_read", "bytes");
  mean("storage.heap_pages_read", "count");
  mean("storage.fetch_cold_us", "us");
  mean("storage.fetch_warm_us", "us");
  mean("sfa.view_decode_us", "us");
  mean("sfa.deserialize_us", "us");
  mean("inference.dp_us", "us");
  mean("inference.dp_steps", "count");
  mean("inference.dp_ns_per_step", "ns");
  mean("batch.distinct_docs_fetched", "count");
  mean("batch.fetch_eval_ms", "ms");
  mean("ingest.append_ms", "ms");
  out->Add("ingest.append_tail_ms", L.Pct("ingest.append_ms", 0.99), "ms");
  mean("wal.bytes_per_append", "bytes");
  mean("ingest.checkpoint_s", "s");
  mean("staccato.approximate_ms", "ms");
  mean("indexing.build_s", "s");
  mean("load.load_s", "s");
  out->Add("trace.overhead_ms", Median(traced_lat) - Median(lat), "ms");
  out->Add("trace.spans", static_cast<double>(run->tracer.size()), "count");
}

// ---- scan-sharded -----------------------------------------------------------

Status ScanSharded(Run* run) {
  constexpr size_t kShards = 4;
  constexpr size_t kPages = 4;
  STACCATO_ASSIGN_OR_RETURN(
      OcrDataset all, MakeDataset(DatasetKind::kCongressActs, kPages + 1, run->opts.seed));
  const size_t n = kPages * kLinesPerPage;
  const OcrDataset data = Prefix(all, n);
  const std::vector<std::string> dict = BuildDictionaryFromCorpus(data.corpus.lines, 4);
  const std::vector<std::string> patterns = DatasetQueries(DatasetKind::kCongressActs);
  const Approach approaches[] = {Approach::kStaccato, Approach::kFullSfa};

  Db db;
  std::unique_ptr<Session> session;
  std::unique_ptr<QueryService> service;
  std::vector<PreparedQuery> queries;
  std::vector<std::pair<Approach, std::string>> query_of;
  auto reset = [&] {
    queries.clear();
    service.reset();
    session.reset();
    db = Db();
  };
  auto setup = [&](const std::string& dir) -> Status {
    STACCATO_RETURN_NOT_OK(OpenAndLoad(run, &db, dir, kShards, data, dict));
    session = std::make_unique<Session>(db.sharded.get());
    service = std::make_unique<QueryService>(session.get(), NoShedding(1, 1));
    query_of.clear();
    for (Approach a : approaches) {
      for (const std::string& p : patterns) {
        QueryOptions q;
        q.pattern = p;
        q.num_ans = kNumAns;
        q.index_mode = IndexMode::kNever;
        STACCATO_ASSIGN_OR_RETURN(PreparedQuery pq, PrepareTimed(run, session.get(), a, q));
        queries.push_back(std::move(pq));
        query_of.push_back({a, p});
      }
    }
    for (PreparedQuery& pq : queries) STACCATO_RETURN_NOT_OK(pq.Execute().status());
    return Status::OK();
  };
  STACCATO_RETURN_NOT_OK(RepeatSetup(run, run->opts.work_dir, setup, reset));

  Outcome o;
  o.tail_q = 0.90;
  run->cache_before = db.CacheTotals();
  run->Log("timed phase");
  run->BeginPhase();
  for (uint32_t i = 0;; ++i) {
    const uint64_t t0 = NowNs();
    if (t0 >= run->phase_end_ns) break;
    const uint64_t req = run->next_request++;
    const uint32_t key = i % queries.size();
    Sample s;
    s.traced = run->Traced(t0);
    s.key = key;
    std::vector<Answer> answers;
    Status st;
    {
      ScopedSpan span(run->TracerAt(t0), "request", req);
      st = ServeQuery(run, service.get(), &queries[key], t0, req, &answers);
    }
    s.ms = MsSince(t0);
    run->Count(st, "query");
    s.ok = st.ok();
    s.answers.push_back(std::move(answers));
    o.samples.push_back(std::move(s));
  }
  run->EndPhase();
  run->cache_after = db.CacheTotals();

  // Verification, outside the timed phase.
  Oracle oracle(OracleDocs(all, Iota(n)), BenchLoad(),
                [&](DocId d) { return db.StaccatoBlob(d); });
  CheckChunking(run, &oracle);
  std::vector<std::vector<Answer>> want(queries.size());
  std::vector<Answer> verified;
  double rp = 0.0;
  for (size_t k = 0; k < queries.size(); ++k) {
    const auto& [a, p] = query_of[k];
    const std::string what = StringPrintf("%s '%s'", ApproachName(a), p.c_str());
    Result<std::vector<Answer>> got = queries[k].Execute();
    run->Count(got.status(), "verify query");
    if (got.ok() && Verify(run, &oracle, what, *got, a, p, 0, kNumAns, n, &want[k]) &&
        verified.size() < 2) {
      verified = want[k];
    }
    rp += RPrecisionOf(run, &oracle, what, a, p, 0, n, [&](size_t r) {
      queries[k].set_num_ans(r);
      Result<std::vector<Answer>> res = queries[k].Execute();
      queries[k].set_num_ans(kNumAns);
      return res;
    });
  }
  o.r_precision = rp / static_cast<double>(queries.size());
  for (const Sample& s : o.samples) {
    const std::string why = s.ok ? CheckAnswers(s.answers[0], want[s.key], kNumAns, n) : "";
    if (!why.empty()) {
      run->Fail("timed-phase answers of " + query_of[s.key].second + ": " + why);
      break;
    }
  }
  SelfTestChecker(run, verified, n);
  // MAP and k-MAP full scans of the same patterns, checked but not timed.
  std::vector<PreparedQuery> checked;
  std::vector<std::pair<Approach, std::string>> checked_of;
  for (Approach a : {Approach::kMap, Approach::kKMap}) {
    for (const std::string& p : patterns) {
      QueryOptions q;
      q.pattern = p;
      q.num_ans = kNumAns;
      q.index_mode = IndexMode::kNever;
      Result<PreparedQuery> pq = session->Prepare(a, q);
      run->Count(pq.status(), "prepare");
      if (!pq.ok()) continue;
      Result<std::vector<Answer>> got = pq->Execute();
      run->Count(got.status(), "verify query");
      if (got.ok()) {
        Verify(run, &oracle, StringPrintf("%s '%s'", ApproachName(a), p.c_str()), *got, a,
               p, 0, kNumAns, n);
      }
      checked.push_back(std::move(*pq));
      checked_of.push_back({a, p});
    }
  }
  o.bytes_per_text_byte = static_cast<double>(TreeBytes(run->opts.work_dir)) /
                          static_cast<double>(TextBytes(all, Iota(n)));

  if (run->opts.trace) {
    LayerProbes(run, &db, all, patterns, n);
    std::vector<PreparedQuery*> batch;
    for (size_t k = 0; k < patterns.size(); ++k) batch.push_back(&queries[k]);
    BatchProbe(run, session.get(), batch, [&](size_t k, const std::vector<Answer>& got) {
      Verify(run, &oracle, "batch probe", got, query_of[k].first,
             query_of[k].second, 0, kNumAns, n);
    });
  }
  std::vector<DocumentInput> burst;
  for (size_t i = n; i < n + kBurstDocs; ++i) burst.push_back(DocInput(all, i));
  AppendBurst(run, &db, run->opts.work_dir, burst);
  for (size_t k = 0; k < checked.size(); ++k) query_of.push_back(checked_of[k]);
  VerifyAfterIngest(run, &db, all, n + kBurstDocs, query_of,
                    [&]() -> Result<std::vector<std::vector<Answer>>> {
                      std::vector<std::vector<Answer>> lists;
                      for (std::vector<PreparedQuery>* v : {&queries, &checked}) {
                        for (PreparedQuery& pq : *v) {
                          STACCATO_ASSIGN_OR_RETURN(std::vector<Answer> a, pq.Execute());
                          lists.push_back(std::move(a));
                        }
                      }
                      return lists;
                    });
  Report(run, o);
  return Status::OK();
}

// ---- batch-scan -------------------------------------------------------------

Status BatchScan(Run* run) {
  constexpr size_t kPages = 2;
  STACCATO_ASSIGN_OR_RETURN(
      OcrDataset all, MakeDataset(DatasetKind::kCongressActs, kPages + 1, run->opts.seed));
  const size_t n = kPages * kLinesPerPage;
  const OcrDataset data = Prefix(all, n);
  const std::vector<std::string> dict = BuildDictionaryFromCorpus(data.corpus.lines, 4);
  // Two Table-6 keywords and both regexes: enough members to share the
  // pass, few enough that a 10 s run holds a hundred batches or more.
  const std::vector<std::string> table6 = DatasetQueries(DatasetKind::kCongressActs);
  const std::vector<std::string> patterns = {table6[0], table6[3], table6[5], table6[6]};

  Db db;
  std::unique_ptr<Session> session;
  std::unique_ptr<QueryService> service;
  std::vector<PreparedQuery> queries;
  std::vector<PreparedQuery*> batch;
  auto reset = [&] {
    batch.clear();
    queries.clear();
    service.reset();
    session.reset();
    db = Db();
  };
  auto setup = [&](const std::string& dir) -> Status {
    STACCATO_RETURN_NOT_OK(OpenAndLoad(run, &db, dir, 1, data, dict));
    session = std::make_unique<Session>(db.one.get());
    service = std::make_unique<QueryService>(session.get(), NoShedding(1, 1));
    for (const std::string& p : patterns) {
      QueryOptions q;
      q.pattern = p;
      q.num_ans = kNumAns;
      q.index_mode = IndexMode::kNever;
      STACCATO_ASSIGN_OR_RETURN(PreparedQuery pq,
                                PrepareTimed(run, session.get(), Approach::kStaccato, q));
      queries.push_back(std::move(pq));
    }
    for (PreparedQuery& pq : queries) batch.push_back(&pq);
    return session->ExecuteBatch(batch).status();
  };
  STACCATO_RETURN_NOT_OK(RepeatSetup(run, run->opts.work_dir, setup, reset));

  Outcome o;
  o.tail_q = 0.90;
  run->cache_before = db.CacheTotals();
  run->Log("timed phase");
  run->BeginPhase();
  while (true) {
    const uint64_t t0 = NowNs();
    if (t0 >= run->phase_end_ns) break;
    const uint64_t req = run->next_request++;
    Tracer* tr = run->TracerAt(t0);
    LayerSamples* L = run->LayersAt(t0);
    Sample s;
    s.traced = tr != nullptr;
    s.queries = static_cast<uint32_t>(batch.size());
    Status st;
    Result<std::vector<std::vector<Answer>>> r = Status::Internal("not run");
    BatchStats bs;
    {
      ScopedSpan span(tr, "request", req);
      {
        ScopedSpan admit(tr, "service.admit", req);
        const uint64_t t = NowNs();
        st = service->Admit();
        if (L != nullptr) L->Add("service.admit_wait_ms", MsSince(t));
      }
      if (st.ok()) {
        const uint64_t t = NowNs();
        {
          ScopedSpan exec(tr, "batch.execute", req);
          r = session->ExecuteBatch(batch, &bs);
        }
        const double exec_ms = MsSince(t);
        service->Release();
        st = r.status();
        if (st.ok() && L != nullptr) {
          for (const QueryStats& q : bs.per_query) RecordQueryStats(L, q, exec_ms);
          L->Add("batch.distinct_docs_fetched",
                 static_cast<double>(bs.distinct_docs_fetched));
          L->Add("batch.fetch_eval_ms",
                 bs.per_query.empty() ? exec_ms
                                      : bs.per_query[0].stage.fetch_eval_s * 1e3);
        }
      }
    }
    s.ms = MsSince(t0);
    run->Count(st, "batch");
    s.ok = st.ok();
    if (s.ok) s.answers = std::move(*r);
    o.samples.push_back(std::move(s));
  }
  run->EndPhase();
  run->cache_after = db.CacheTotals();

  Oracle oracle(OracleDocs(all, Iota(n)), BenchLoad(),
                [&](DocId d) { return db.StaccatoBlob(d); });
  CheckChunking(run, &oracle);
  Result<std::vector<std::vector<Answer>>> got = session->ExecuteBatch(batch);
  run->Count(got.status(), "verify batch");
  std::vector<std::vector<Answer>> want(patterns.size());
  std::vector<Answer> verified;
  for (size_t k = 0; got.ok() && k < got->size(); ++k) {
    const std::string what = "batch member '" + patterns[k] + "'";
    if (Verify(run, &oracle, what, (*got)[k], Approach::kStaccato, patterns[k], 0,
               kNumAns, n, &want[k]) &&
        verified.size() < 2) {
      verified = want[k];
    }
  }
  size_t mismatches = 0;
  for (const Sample& s : o.samples) {
    for (size_t k = 0; s.ok && k < s.answers.size(); ++k) {
      const std::string why = CheckAnswers(s.answers[k], want[k], kNumAns, n);
      if (!why.empty() && mismatches++ == 0) {
        run->Fail("timed-phase batch member '" + patterns[k] + "': " + why);
      }
    }
  }
  SelfTestChecker(run, verified, n);
  // R-precision through the batch path: every member at NumAns = |truth|.
  std::vector<std::vector<DocId>> truths;
  for (size_t k = 0; k < queries.size(); ++k) {
    Result<std::vector<DocId>> t = oracle.Truth(patterns[k], 0);
    truths.push_back(t.ok() ? *t : std::vector<DocId>{});
    queries[k].set_num_ans(std::max<size_t>(truths[k].size(), 1));
  }
  Result<std::vector<std::vector<Answer>>> at_r = session->ExecuteBatch(batch);
  run->Count(at_r.status(), "batch at NumAns=R");
  double rp = 0.0;
  for (size_t k = 0; at_r.ok() && k < queries.size(); ++k) {
    Verify(run, &oracle, "batch member at NumAns=R", (*at_r)[k], Approach::kStaccato,
           patterns[k], 0, truths[k].size(), n);
    if (truths[k].empty()) run->Fail("no ground truth for " + patterns[k]);
    rp += RPrecision((*at_r)[k], truths[k]);
    queries[k].set_num_ans(kNumAns);
  }
  o.r_precision = rp / static_cast<double>(queries.size());
  o.bytes_per_text_byte = static_cast<double>(TreeBytes(run->opts.work_dir)) /
                          static_cast<double>(TextBytes(all, Iota(n)));

  if (run->opts.trace) LayerProbes(run, &db, all, patterns, n);
  std::vector<DocumentInput> burst;
  for (size_t i = n; i < n + kBurstDocs; ++i) burst.push_back(DocInput(all, i));
  AppendBurst(run, &db, run->opts.work_dir, burst);
  std::vector<std::pair<Approach, std::string>> query_of;
  for (const std::string& p : patterns) query_of.push_back({Approach::kStaccato, p});
  VerifyAfterIngest(run, &db, all, n + kBurstDocs, query_of,
                    [&] { return session->ExecuteBatch(batch); });
  Report(run, o);
  return Status::OK();
}

struct WorkloadDef {
  const char* name;
  Status (*fn)(Run*);
  /// STACCATO_THREADS: pool workers beside the client. With every
  /// hardware thread busy the same run repeated swings by a quarter, and
  /// the 4-shard scatter swung by as much with two workers; one worker
  /// holds it within a tenth.
  const char* threads;
  const char* cache_mb;  ///< STACCATO_CACHE_MB
};

const WorkloadDef kWorkloads[] = {
    {"scan-sharded", ScanSharded, "1", "64"},
    {"batch-scan", BatchScan, "2", "64"},
};

}  // namespace

const std::vector<std::string>& WorkloadNames() {
  static const std::vector<std::string> names = [] {
    std::vector<std::string> v;
    for (const WorkloadDef& w : kWorkloads) v.push_back(w.name);
    return v;
  }();
  return names;
}

Status RunWorkload(const Options& opts, RunResult* out) {
  const WorkloadDef* def = nullptr;
  for (const WorkloadDef& w : kWorkloads) {
    if (opts.workload == w.name) def = &w;
  }
  if (def == nullptr) return Status::InvalidArgument("unknown workload " + opts.workload);
  // The engine reads these once, on first use: set them before anything
  // starts, and clear every other knob so the run does not depend on the
  // caller's environment.
  for (const char* knob :
       {"STACCATO_DELTA_DOCS", "STACCATO_SHARDS", "STACCATO_TRACE",
        "STACCATO_MAX_CONCURRENT", "STACCATO_QUEUE_TIMEOUT_MS", "STACCATO_IO_RETRIES",
        "STACCATO_METRICS_DUMP", "STACCATO_SLOW_QUERY_LOG", "STACCATO_SLOW_QUERY_MS",
        "STACCATO_SLOW_LOG_MB"}) {
    unsetenv(knob);
  }
  setenv("STACCATO_THREADS", def->threads, 1);
  setenv("STACCATO_CACHE_MB", def->cache_mb, 1);
  setenv("STACCATO_WAL_SYNC", "commit", 1);

  Run run(opts, out);
  Status st = def->fn(&run);
  std::error_code ec;
  std::filesystem::remove_all(opts.work_dir, ec);
  if (!st.ok()) return st;
  if (opts.trace && !opts.trace_path.empty()) {
    const std::string header = StringPrintf(
        "\"workload\": \"%s\", \"seed\": %llu, \"seconds\": %g", opts.workload.c_str(),
        static_cast<unsigned long long>(opts.seed), opts.seconds);
    if (!run.tracer.WriteJson(opts.trace_path, header, out->metrics)) {
      return Status::IOError("cannot write " + opts.trace_path);
    }
  }
  return Status::OK();
}

}  // namespace e2ebench
