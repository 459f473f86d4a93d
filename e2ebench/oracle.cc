#include "oracle.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <set>

#include "inference/kbest.h"
#include "inference/query_eval.h"
#include "staccato/chunking.h"

namespace e2ebench {

using staccato::Dfa;
using staccato::MatchMode;
using staccato::Result;
using staccato::Sfa;

Oracle::Oracle(std::vector<OracleDoc> docs, staccato::rdbms::LoadOptions load,
               StoredBlobFn stored_blob)
    : docs_(std::move(docs)),
      load_(load),
      stored_blob_(std::move(stored_blob)),
      chunked_(docs_.size()),
      kbest_(docs_.size()),
      map_(docs_.size()) {}

const std::vector<staccato::ScoredString>& Oracle::KBest(DocId doc) {
  if (!kbest_[doc].has_value()) {
    kbest_[doc] = staccato::KBestStrings(*docs_[doc].sfa, load_.kmap_k);
  }
  return *kbest_[doc];
}

Result<const Dfa*> Oracle::DfaFor(const std::string& pattern) {
  auto it = dfas_.find(pattern);
  if (it == dfas_.end()) {
    STACCATO_ASSIGN_OR_RETURN(Dfa dfa, Dfa::Compile(pattern, MatchMode::kContains));
    it = dfas_.emplace(pattern, std::make_unique<Dfa>(std::move(dfa))).first;
  }
  return it->second.get();
}

Result<double> Oracle::StaccatoProb(DocId doc, const Dfa& dfa) {
  if (!chunked_[doc].has_value()) {
    STACCATO_ASSIGN_OR_RETURN(std::string blob, stored_blob_(doc));
    STACCATO_ASSIGN_OR_RETURN(Sfa sfa, Sfa::Deserialize(blob));
    chunked_[doc] = std::move(sfa);
  }
  return staccato::EvalSfaQuery(*chunked_[doc], dfa);
}

Result<const std::vector<double>*> Oracle::Probs(Approach approach,
                                                 const std::string& pattern) {
  const std::string key =
      std::string(staccato::rdbms::ApproachName(approach)) + '\x1f' + pattern;
  auto it = probs_.find(key);
  if (it != probs_.end()) return &it->second;
  STACCATO_ASSIGN_OR_RETURN(const Dfa* dfa, DfaFor(pattern));
  std::vector<double> probs(docs_.size(), 0.0);
  for (DocId d = 0; d < docs_.size(); ++d) {
    const Sfa& sfa = *docs_[d].sfa;
    switch (approach) {
      case Approach::kFullSfa:
        probs[d] = staccato::EvalSfaQuery(sfa, *dfa);
        break;
      case Approach::kStaccato: {
        STACCATO_ASSIGN_OR_RETURN(probs[d], StaccatoProb(d, *dfa));
        break;
      }
      case Approach::kMap: {
        if (!map_[d].has_value()) {
          STACCATO_ASSIGN_OR_RETURN(map_[d], staccato::MapString(sfa));
        }
        // The database stores log-probabilities; the round trip is part
        // of the reference value.
        if (dfa->Matches(map_[d]->str)) probs[d] = std::exp(std::log(map_[d]->prob));
        break;
      }
      case Approach::kKMap: {
        double mass = 0.0;
        for (const staccato::ScoredString& s : KBest(d)) {
          if (dfa->Matches(s.str)) mass += std::exp(std::log(s.prob));
        }
        probs[d] = std::min(mass, 1.0);
        break;
      }
    }
  }
  return &probs_.emplace(key, std::move(probs)).first->second;
}

Result<std::vector<Answer>> Oracle::Expected(Approach approach,
                                             const std::string& pattern,
                                             int64_t year, size_t num_ans,
                                             size_t n_docs) {
  STACCATO_ASSIGN_OR_RETURN(const std::vector<double>* probs,
                            Probs(approach, pattern));
  std::vector<Answer> all;
  for (DocId d = 0; d < std::min(n_docs, docs_.size()); ++d) {
    if (year != 0 && docs_[d].year != year) continue;
    if ((*probs)[d] > 0.0) all.push_back({d, (*probs)[d]});
  }
  std::sort(all.begin(), all.end(), [](const Answer& a, const Answer& b) {
    return a.prob != b.prob ? a.prob > b.prob : a.doc < b.doc;
  });
  if (all.size() > num_ans) all.resize(num_ans);
  return all;
}

Result<std::vector<DocId>> Oracle::Truth(const std::string& pattern,
                                         int64_t year) {
  STACCATO_ASSIGN_OR_RETURN(const Dfa* dfa, DfaFor(pattern));
  std::vector<DocId> truth;
  for (DocId d = 0; d < docs_.size(); ++d) {
    if (year != 0 && docs_[d].year != year) continue;
    if (dfa->Matches(*docs_[d].truth)) truth.push_back(d);
  }
  return truth;
}

std::string Oracle::CheckChunking(const std::vector<DocId>& sample) {
  for (DocId d : sample) {
    Result<Sfa> approx = staccato::ApproximateSfa(*docs_[d].sfa, load_.staccato);
    if (!approx.ok()) return "ApproximateSfa failed: " + approx.status().ToString();
    Result<std::string> stored = stored_blob_(d);
    if (!stored.ok()) return "stored blob unreadable: " + stored.status().ToString();
    if (approx->Serialize() != *stored) {
      return "stored chunked SFA of doc " + std::to_string(d) +
             " differs from ApproximateSfa of its generated SFA";
    }
  }
  return "";
}

std::string CheckAnswers(const std::vector<Answer>& got,
                         const std::vector<Answer>& expected, size_t num_ans,
                         size_t num_docs) {
  if (got.size() > num_ans) return "more answers than NumAns";
  std::set<DocId> seen;
  for (size_t i = 0; i < got.size(); ++i) {
    const Answer& a = got[i];
    if (!(a.prob > 0.0 && a.prob <= 1.0)) return "probability outside (0, 1]";
    if (a.doc >= num_docs) return "doc id out of range";
    if (!seen.insert(a.doc).second) return "duplicate doc id";
    if (i > 0) {
      const Answer& p = got[i - 1];
      if (a.prob > p.prob || (a.prob == p.prob && a.doc < p.doc)) {
        return "ranks do not descend at position " + std::to_string(i);
      }
    }
  }
  if (got.size() != expected.size()) {
    return "returned " + std::to_string(got.size()) + " answers, reference has " +
           std::to_string(expected.size());
  }
  for (size_t i = 0; i < got.size(); ++i) {
    if (got[i].doc != expected[i].doc ||
        std::memcmp(&got[i].prob, &expected[i].prob, sizeof(double)) != 0) {
      return "answer " + std::to_string(i) + " is doc " +
             std::to_string(got[i].doc) + " p=" + std::to_string(got[i].prob) +
             ", reference doc " + std::to_string(expected[i].doc) +
             " p=" + std::to_string(expected[i].prob);
    }
  }
  return "";
}

std::string CheckerSelfTest(const std::vector<Answer>& verified,
                            size_t num_ans, size_t num_docs) {
  if (verified.size() < 2) return "self-test needs a list of two or more answers";
  if (!CheckAnswers(verified, verified, num_ans, num_docs).empty()) {
    return "checker rejects an unperturbed list";
  }
  std::vector<Answer> dropped(verified.begin(), verified.end() - 1);
  std::vector<Answer> reordered = verified;
  std::swap(reordered[0], reordered[1]);
  std::vector<Answer> rescored = verified;
  rescored[0].prob = std::nextafter(rescored[0].prob, 0.0);
  if (CheckAnswers(dropped, verified, num_ans, num_docs).empty()) {
    return "checker accepts a list with an answer dropped";
  }
  if (CheckAnswers(reordered, verified, num_ans, num_docs).empty()) {
    return "checker accepts a reordered list";
  }
  if (CheckAnswers(rescored, verified, num_ans, num_docs).empty()) {
    return "checker accepts a re-scored answer";
  }
  return "";
}

double RPrecision(const std::vector<Answer>& ranked,
                  const std::vector<DocId>& truth) {
  if (truth.empty()) return 0.0;
  const std::set<DocId> t(truth.begin(), truth.end());
  size_t hits = 0;
  for (size_t i = 0; i < ranked.size() && i < truth.size(); ++i) {
    hits += t.count(ranked[i].doc);
  }
  return static_cast<double>(hits) / static_cast<double>(truth.size());
}

}  // namespace e2ebench
