#include "index/query_exec.hpp"

#include <algorithm>
#include <bit>
#include <cmath>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace resex {

namespace {

/// Shared query-path instruments: every top-k executor records into the
/// same `query.latency_us` histogram and a per-algorithm
/// `query.algo.<name>` counter.
obs::Histogram& queryLatencyHistogram() {
  static obs::Histogram& hist =
      obs::MetricsRegistry::global().histogram("query.latency_us");
  return hist;
}

obs::Counter& queryCounter(const char* algo) {
  return obs::MetricsRegistry::global().counter(std::string("query.algo.") + algo);
}

/// Per-query scoring context resolved from global-vs-local statistics.
struct ScoreContext {
  std::size_t docCount = 0;
  double avgLen = 0.0;
};

/// Deduplicates `terms` into scratch.terms, resets scratch.exec, and
/// initializes one cursor per non-empty posting list in sorted-term order
/// (idf from effectiveDf).
ScoreContext buildCursors(const InvertedIndex& index,
                          const std::vector<TermId>& terms,
                          const Bm25Params& params, const GlobalStats* global,
                          QueryScratch& scratch) {
  ScoreContext ctx;
  ctx.docCount = global ? global->documentCount : index.documentCount();
  ctx.avgLen = global ? global->avgDocLength : index.averageDocLength();
  // Deduplicate repeated query terms (their contributions would double);
  // sorted order also fixes the floating-point summation order, keeping
  // the kernels' scores bit-identical to the TAAT reference.
  scratch.terms.assign(terms.begin(), terms.end());
  std::sort(scratch.terms.begin(), scratch.terms.end());
  scratch.terms.erase(std::unique(scratch.terms.begin(), scratch.terms.end()),
                      scratch.terms.end());
  scratch.exec = ExecStats{};
  scratch.cursors.clear();
  for (const TermId t : scratch.terms) {
    const PostingList& pl = index.postings(t);
    if (pl.documentCount() == 0) continue;  // contributes nothing anywhere
    const std::size_t df = effectiveDf(global, t, pl.documentCount());
    const double idf = bm25Idf(ctx.docCount, df);
    // tf/(tf+norm) < 1, so idf*(k1+1) bounds any contribution.
    scratch.cursors.emplace_back();
    scratch.cursors.back().init(&pl, idf, idf * (params.k1 + 1.0),
                                &scratch.buffer(scratch.cursors.size() - 1),
                                &scratch.exec);
  }
  return ctx;
}

/// Accumulates scratch.exec into `stats` (may be null) and records the
/// block counters (`query.blocks_decoded` / `query.blocks_skipped` /
/// `query.heap_threshold_prunes`).
void finishExec(const QueryScratch& scratch, ExecStats* stats) {
  if (stats != nullptr) {
    stats->postingsScanned += scratch.exec.postingsScanned;
    stats->candidatesScored += scratch.exec.candidatesScored;
    stats->blocksDecoded += scratch.exec.blocksDecoded;
    stats->blocksSkipped += scratch.exec.blocksSkipped;
    stats->heapThresholdPrunes += scratch.exec.heapThresholdPrunes;
  }
  static obs::Counter& decoded =
      obs::MetricsRegistry::global().counter("query.blocks_decoded");
  static obs::Counter& skipped =
      obs::MetricsRegistry::global().counter("query.blocks_skipped");
  static obs::Counter& prunes =
      obs::MetricsRegistry::global().counter("query.heap_threshold_prunes");
  decoded.add(scratch.exec.blocksDecoded);
  skipped.add(scratch.exec.blocksSkipped);
  prunes.add(scratch.exec.heapThresholdPrunes);
}

/// The MaxScore core (no tracing/counter side effects; fills scratch.exec).
std::span<const ScoredDoc> maxScore(const InvertedIndex& index,
                                    const std::vector<TermId>& terms,
                                    std::size_t k, const Bm25Params& params,
                                    const GlobalStats* global,
                                    QueryScratch& scratch) {
  scratch.exec = ExecStats{};
  scratch.heapStorage.clear();
  if (k == 0 || terms.empty()) return {};
  const ScoreContext ctx = buildCursors(index, terms, params, global, scratch);
  std::vector<TermCursor>& cursors = scratch.cursors;
  const std::size_t n = cursors.size();
  if (n == 0) return {};

  // order[] ranks the cursors (which stay in term order) by ascending
  // upper bound; cumBound[i] sums the bounds of order[0..i].
  std::vector<std::size_t>& order = scratch.order;
  order.resize(n);
  for (std::size_t i = 0; i < n; ++i) order[i] = i;
  std::sort(order.begin(), order.end(), [&cursors](std::size_t a, std::size_t b) {
    const double ua = cursors[a].upperBound();
    const double ub = cursors[b].upperBound();
    return ua != ub ? ua < ub : a < b;
  });
  std::vector<double>& cumBound = scratch.cumBound;
  cumBound.resize(n);
  double running = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    running += cursors[order[i]].upperBound();
    cumBound[i] = running;
  }
  // A candidate's contributions by cursor, and a bitset of the cursors
  // that matched it: word 0 lives in a register, words 1.. (queries of
  // more than 64 terms) in the arena, kept all-zero between candidates.
  const std::size_t words = (n + 63) / 64;
  scratch.contrib.resize(n);
  scratch.matched.assign(words, 0);

  // The hot loop reads the arena through local pointers: the cursors'
  // stores cannot alias a local, so nothing is reloaded per posting.
  TermCursor* const cur = cursors.data();
  const std::size_t* const rank = order.data();
  const double* const bound = cumBound.data();
  double* const contrib = scratch.contrib.data();
  std::uint64_t* const matched = scratch.matched.data();
  const std::uint32_t* const docLengths = index.docLengths().data();
  const double avgLen = ctx.avgLen;
  scratch.heap.reset(&scratch.heapStorage, k);
  TopKHeap& heap = scratch.heap;
  std::size_t scored = 0;
  std::size_t prunes = 0;

  // Lists rank[0..firstEssential) are non-essential: together they cannot
  // beat the threshold, so a document only they contain never enters the
  // heap. Candidates come from the essential lists alone.
  std::size_t firstEssential = 0;
  double theta = heap.threshold();
  const auto minEssentialDoc = [&] {
    DocId head = TermCursor::kEndDoc;
    for (std::size_t i = firstEssential; i < n; ++i)
      head = std::min(head, cur[rank[i]].doc());
    return head;
  };
  std::uint64_t matchedLow = 0;
  const auto match = [&](std::size_t c, double s) {
    contrib[c] = s;
    if (c < 64)
      matchedLow |= std::uint64_t{1} << c;
    else
      matched[c / 64] |= std::uint64_t{1} << (c % 64);
  };
  DocId candidate = minEssentialDoc();
  while (candidate != TermCursor::kEndDoc) {
    const DocId doc = candidate;
    const double docLength = docLengths[doc];
    // Score the essential lists on the candidate, advance them, and find
    // the next candidate on the way.
    double partial = 0.0;
    DocId next = TermCursor::kEndDoc;
    for (std::size_t i = firstEssential; i < n; ++i) {
      TermCursor& c = cur[rank[i]];
      if (c.doc() == doc) {
        const double s = bm25TermScore(c.idf(), c.freq(), docLength, avgLen, params);
        match(rank[i], s);
        partial += s;
        c.next();
      }
      next = std::min(next, c.doc());
    }
    candidate = next;
    // Probe the non-essential lists, largest bound first, while the
    // candidate can still beat the threshold.
    bool pruned = false;
    for (std::size_t i = firstEssential; i-- > 0;) {
      if (partial + bound[i] <= theta) {
        pruned = true;
        break;
      }
      TermCursor& c = cur[rank[i]];
      c.nextGeq(doc);
      if (c.doc() != doc) continue;
      const double s = bm25TermScore(c.idf(), c.freq(), docLength, avgLen, params);
      match(rank[i], s);
      partial += s;
    }
    // Sum the contributions in term order, so the score is bit-identical
    // to TAAT's, clearing the bitset on the way.
    double score = 0.0;
    for (std::uint64_t bits = matchedLow; bits != 0; bits &= bits - 1)
      score += contrib[static_cast<std::size_t>(std::countr_zero(bits))];
    matchedLow = 0;
    for (std::size_t w = 1; w < words; ++w) {
      for (std::uint64_t bits = matched[w]; bits != 0; bits &= bits - 1)
        score += contrib[w * 64 + static_cast<std::size_t>(std::countr_zero(bits))];
      matched[w] = 0;
    }
    if (pruned) {
      ++prunes;
      continue;
    }
    ++scored;
    if (score < theta) continue;  // cannot enter the full heap
    heap.offer(score, index.docId(doc));
    if (heap.threshold() == theta) continue;
    theta = heap.threshold();
    const std::size_t before = firstEssential;
    while (firstEssential < n && bound[firstEssential] <= theta) ++firstEssential;
    if (firstEssential == n) {
      ++prunes;  // nothing left can beat the heap
      break;
    }
    if (firstEssential != before) candidate = minEssentialDoc();
  }
  scratch.exec.candidatesScored += scored;
  scratch.exec.heapThresholdPrunes += prunes;
  return heap.finish();
}

std::vector<ScoredDoc> selectTopK(std::vector<ScoredDoc>&& scored, std::size_t k) {
  if (scored.size() > k) {
    std::partial_sort(scored.begin(), scored.begin() + static_cast<std::ptrdiff_t>(k),
                      scored.end(), TopKHeap::isBetter);
    scored.resize(k);
  } else {
    std::sort(scored.begin(), scored.end(), TopKHeap::isBetter);
  }
  return std::move(scored);
}

}  // namespace

std::span<const ScoredDoc> topKDisjunctiveInto(
    const InvertedIndex& index, const std::vector<TermId>& terms, std::size_t k,
    const Bm25Params& params, QueryScratch& scratch, ExecStats* stats,
    const GlobalStats* global) {
  RESEX_TRACE_SPAN("query.disjunctive");
  static obs::Counter& queries = queryCounter("disjunctive");
  queries.add();
  obs::ScopedLatencyUs latency(queryLatencyHistogram());
  const auto results = maxScore(index, terms, k, params, global, scratch);
  finishExec(scratch, stats);
  return results;
}

std::vector<ScoredDoc> topKDisjunctive(const InvertedIndex& index,
                                       const std::vector<TermId>& terms,
                                       std::size_t k, const Bm25Params& params,
                                       ExecStats* stats, const GlobalStats* global) {
  const auto results = topKDisjunctiveInto(index, terms, k, params,
                                           threadLocalQueryScratch(), stats, global);
  return {results.begin(), results.end()};
}

std::vector<ScoredDoc> topKDisjunctiveTaat(const InvertedIndex& index,
                                           const std::vector<TermId>& terms,
                                           std::size_t k, const Bm25Params& params,
                                           ExecStats* stats,
                                           const GlobalStats* global) {
  RESEX_TRACE_SPAN("query.disjunctive_taat");
  static obs::Counter& queries = queryCounter("disjunctive_taat");
  queries.add();
  obs::ScopedLatencyUs latency(queryLatencyHistogram());
  QueryScratch& scratch = threadLocalQueryScratch();
  const std::size_t docCount =
      global ? global->documentCount : index.documentCount();
  const double avgLen = global ? global->avgDocLength : index.averageDocLength();
  std::vector<TermId>& unique = scratch.terms;
  unique.assign(terms.begin(), terms.end());
  std::sort(unique.begin(), unique.end());
  unique.erase(std::unique(unique.begin(), unique.end()), unique.end());

  // Dense accumulator over the shard's documents, kept all-zero between
  // queries: only the touched entries are written and cleared.
  std::vector<double>& acc = scratch.acc;
  if (acc.size() < index.documentCount()) acc.resize(index.documentCount(), 0.0);
  std::vector<DocId>& touchedDocs = scratch.touched;
  touchedDocs.clear();

  for (const TermId t : unique) {
    const PostingList& list = index.postings(t);
    if (list.documentCount() == 0) continue;
    const std::size_t df = effectiveDf(global, t, list.documentCount());
    const double idf = bm25Idf(docCount, df);
    list.decode(scratch.decodeDocs, scratch.decodeFreqs);
    if (stats) stats->postingsScanned += scratch.decodeDocs.size();
    for (std::size_t i = 0; i < scratch.decodeDocs.size(); ++i) {
      const DocId d = scratch.decodeDocs[i];
      if (acc[d] == 0.0) touchedDocs.push_back(d);
      acc[d] += bm25TermScore(idf, scratch.decodeFreqs[i], index.docLength(d),
                              avgLen, params);
    }
  }

  std::vector<ScoredDoc>& candidates = scratch.candidates;
  candidates.clear();
  candidates.reserve(touchedDocs.size());
  for (const DocId d : touchedDocs) {
    candidates.push_back(ScoredDoc{index.docId(d), acc[d]});
    acc[d] = 0.0;
  }
  if (stats) stats->candidatesScored += candidates.size();
  std::vector<ScoredDoc> scored(candidates.begin(), candidates.end());
  return selectTopK(std::move(scored), k);
}

std::vector<ScoredDoc> mergeTopK(const std::vector<std::vector<ScoredDoc>>& perShard,
                                 std::size_t k) {
  std::size_t total = 0;
  for (const auto& shard : perShard) total += shard.size();
  std::vector<ScoredDoc> all;
  all.reserve(total);
  for (const auto& shard : perShard) all.insert(all.end(), shard.begin(), shard.end());
  return selectTopK(std::move(all), k);
}

}  // namespace resex
