// Query execution over an InvertedIndex: BM25-scored disjunctive top-k with
// work accounting (postings touched).
//
// topKDisjunctive is MaxScore (Turtle & Flood) over block-codec cursors:
// lists sorted by score upper bound split into an *essential* suffix,
// which alone could beat the top-k heap threshold and so generates the
// candidates, and a *non-essential* prefix that is only probed (nextGeq,
// which passes over whole blocks undecoded) to finish a candidate that
// survives the bound check. Each candidate's contributions are summed in
// sorted-term order, the order topKDisjunctiveTaat sums them in, so scores
// are bit-identical to that exhaustive reference. All state lives in a
// reusable QueryScratch arena (zero steady-state allocation — the *Into
// variants return views into the arena). topKDisjunctiveTaat scores every
// posting of every query term: it is the test oracle and the work baseline
// the pruning literature (and fig12_pruning) measures against.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "index/cursor.hpp"
#include "index/inverted_index.hpp"
#include "index/scoring.hpp"

namespace resex {

/// Disjunctive (OR) top-k by BM25 — MaxScore document-at-a-time; results
/// are bit-identical to topKDisjunctiveTaat (sorted by descending score,
/// ties by ascending doc id).
std::vector<ScoredDoc> topKDisjunctive(const InvertedIndex& index,
                                       const std::vector<TermId>& terms,
                                       std::size_t k, const Bm25Params& params,
                                       ExecStats* stats = nullptr,
                                       const GlobalStats* global = nullptr);

/// topKDisjunctive into a caller-owned scratch arena: the returned view
/// aliases scratch storage and stays valid until the scratch is reused.
/// Allocation-free once the arena is warm.
std::span<const ScoredDoc> topKDisjunctiveInto(
    const InvertedIndex& index, const std::vector<TermId>& terms, std::size_t k,
    const Bm25Params& params, QueryScratch& scratch, ExecStats* stats = nullptr,
    const GlobalStats* global = nullptr);

/// Exhaustive term-at-a-time reference (the oracle): every posting of
/// every query term is decoded and scored into a dense accumulator. Same
/// results as topKDisjunctive; postingsScanned counts the full lists.
std::vector<ScoredDoc> topKDisjunctiveTaat(const InvertedIndex& index,
                                           const std::vector<TermId>& terms,
                                           std::size_t k, const Bm25Params& params,
                                           ExecStats* stats = nullptr,
                                           const GlobalStats* global = nullptr);

/// Merges per-shard top-k lists into a global top-k (scatter-gather
/// reduce step of a document-partitioned engine).
std::vector<ScoredDoc> mergeTopK(const std::vector<std::vector<ScoredDoc>>& perShard,
                                 std::size_t k);

}  // namespace resex
