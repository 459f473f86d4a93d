// The answer oracle, built apart from the executor.
//
//   FullSFA   EvalSfaQuery over each document's generated SFA.
//   Staccato  EvalSfaQuery over each document's stored chunked SFA, read
//             back through the database's public blob accessor: the
//             reference path (one shard, one thread, no cache, no
//             pruning). CheckChunking separately compares a sample of the
//             stored chunked SFAs with ApproximateSfa run on the generated
//             SFA under the Load's (m, k).
//   MAP       MapString of the generated SFA, if the DFA accepts it.
//   k-MAP     KBestStrings of the generated SFA: the summed probability of
//             the accepted strings, in rank order, capped at 1.
//
// Ground truth is the pattern's DFA over the generated truth lines. The
// executor's answers must equal the reference top-k exactly: same
// documents in the same order with bit-identical probabilities.
#pragma once

#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "automata/dfa.h"
#include "inference/kbest.h"
#include "metrics/metrics.h"
#include "rdbms/plan.h"
#include "rdbms/staccato_db.h"
#include "sfa/sfa.h"
#include "util/result.h"

namespace e2ebench {

using staccato::Answer;
using staccato::DocId;
using staccato::rdbms::Approach;

/// MasterData's Year column is this plus the document's page number.
inline constexpr int64_t kBaseYear = 2010;

/// The generated inputs behind every document id the database holds.
struct OracleDoc {
  const staccato::Sfa* sfa = nullptr;  ///< the generated (full) SFA
  const std::string* truth = nullptr;  ///< the generated truth line
  int64_t year = 0;
};

/// Reads one document's stored chunked SFA blob from the database.
using StoredBlobFn = std::function<staccato::Result<std::string>(DocId)>;

class Oracle {
 public:
  Oracle(std::vector<OracleDoc> docs, staccato::rdbms::LoadOptions load,
         StoredBlobFn stored_blob);

  size_t num_docs() const { return docs_.size(); }

  /// Reference probability of `pattern` under `approach` for every
  /// document (memoized per approach and pattern).
  staccato::Result<const std::vector<double>*> Probs(Approach approach,
                                                     const std::string& pattern);

  /// The reference top `num_ans` over documents [0, n_docs) whose year is
  /// `year` (0 = no year predicate): descending probability, ties by
  /// ascending doc id, zero-probability documents dropped.
  staccato::Result<std::vector<Answer>> Expected(Approach approach,
                                                 const std::string& pattern,
                                                 int64_t year, size_t num_ans,
                                                 size_t n_docs);

  /// Documents whose truth line contains a match of `pattern` (and whose
  /// year is `year`, when nonzero).
  staccato::Result<std::vector<DocId>> Truth(const std::string& pattern,
                                             int64_t year);

  /// Byte-compares the stored chunked SFA of each sampled document with
  /// ApproximateSfa(generated SFA, load.staccato). Returns "" when all
  /// match, else the first mismatch.
  std::string CheckChunking(const std::vector<DocId>& sample);

 private:
  staccato::Result<const staccato::Dfa*> DfaFor(const std::string& pattern);
  staccato::Result<double> StaccatoProb(DocId doc, const staccato::Dfa& dfa);
  /// KBestStrings(generated SFA, kmap_k), computed once per document.
  const std::vector<staccato::ScoredString>& KBest(DocId doc);

  std::vector<OracleDoc> docs_;
  staccato::rdbms::LoadOptions load_;
  StoredBlobFn stored_blob_;
  std::map<std::string, std::unique_ptr<staccato::Dfa>> dfas_;
  std::map<std::string, std::vector<double>> probs_;
  std::vector<std::optional<staccato::Sfa>> chunked_;  ///< stored, decoded
  std::vector<std::optional<std::vector<staccato::ScoredString>>> kbest_;
  std::vector<std::optional<staccato::ScoredString>> map_;
};

/// Checks one ranked answer list: at most `num_ans` answers, unique doc
/// ids below `num_docs`, probabilities in (0, 1], ranks descending (ties
/// by ascending doc id), and exact equality with `expected`. Returns ""
/// when the list passes, else the reason it fails.
std::string CheckAnswers(const std::vector<Answer>& got,
                         const std::vector<Answer>& expected, size_t num_ans,
                         size_t num_docs);

/// Shows CheckAnswers rejects a perturbed copy of a list it accepted: one
/// answer dropped, two answers swapped, one answer re-scored. Returns ""
/// when all three are rejected.
std::string CheckerSelfTest(const std::vector<Answer>& verified,
                            size_t num_ans, size_t num_docs);

/// Precision at rank R = |truth| of a list ranked with NumAns >= R.
double RPrecision(const std::vector<Answer>& ranked,
                  const std::vector<DocId>& truth);

}  // namespace e2ebench
