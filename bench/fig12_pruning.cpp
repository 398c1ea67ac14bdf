// F12 (extension) — Dynamic pruning on the materialized index: postings
// decoded by the served MaxScore kernel vs exhaustive evaluation.
//
// The efficiency companion of the load-balance work (cf. the same group's
// "Hybrid Dynamic Pruning", ICPP 2020): MaxScore returns the identical
// top-k while decoding a fraction of the postings. Expected shape: the
// saving grows with list length (head terms) and shrinks as k grows.
//
// Every served result is compared with the exhaustive TAAT oracle, doc id
// and score exactly; the binary exits 1 on any mismatch.

#include <cstdio>

#include "index/partition.hpp"
#include "util/rng.hpp"
#include "util/table.hpp"
#include "workload/zipf.hpp"

int main() {
  resex::SyntheticDocConfig config;
  config.seed = 2020;
  config.docCount = 40000;
  config.termCount = 6000;
  config.termExponent = 1.05;
  const auto docs = resex::generateDocuments(config);
  const resex::InvertedIndex index(config.termCount, docs);

  std::printf("== F12: MaxScore pruning vs exhaustive BM25 top-k ==\n");
  std::printf("%u docs, %u terms, %zu postings\n\n", config.docCount,
              config.termCount, index.totalPostings());

  resex::Table table({"query mix", "k", "exhaustive", "maxscore", "saved", "identical"});

  struct Mix {
    const char* name;
    double exponent;  // of query-term popularity
    std::size_t termsPerQuery;
  };
  const Mix mixes[] = {
      {"head terms, 2-term", 1.4, 2},
      {"head terms, 4-term", 1.4, 4},
      {"mixed terms, 2-term", 0.8, 2},
      {"mixed terms, 4-term", 0.8, 4},
  };
  std::size_t mismatches = 0;
  for (const Mix& mix : mixes) {
    for (const std::size_t k : {10u, 100u}) {
      resex::Rng rng(7);
      const resex::ZipfSampler termPick(config.termCount, mix.exponent);
      resex::ExecStats full;
      resex::ExecStats served;
      std::size_t rowMismatches = 0;
      for (int q = 0; q < 150; ++q) {
        std::vector<resex::TermId> query;
        for (std::size_t i = 0; i < mix.termsPerQuery; ++i)
          query.push_back(static_cast<resex::TermId>(termPick.sample(rng) - 1));
        const auto reference =
            resex::topKDisjunctiveTaat(index, query, k, resex::Bm25Params{}, &full);
        const auto fast =
            resex::topKDisjunctive(index, query, k, resex::Bm25Params{}, &served);
        bool same = fast.size() == reference.size();
        for (std::size_t i = 0; same && i < fast.size(); ++i)
          same = fast[i].doc == reference[i].doc && fast[i].score == reference[i].score;
        if (!same) ++rowMismatches;
      }
      mismatches += rowMismatches;
      table.addRow({mix.name, resex::Table::num(k),
                    resex::Table::num(full.postingsScanned),
                    resex::Table::num(served.postingsScanned),
                    resex::Table::pct(1.0 - static_cast<double>(served.postingsScanned) /
                                                static_cast<double>(full.postingsScanned),
                                      1),
                    rowMismatches == 0 ? "yes" : "NO"});
    }
  }
  table.print();
  if (mismatches != 0) {
    std::fprintf(stderr, "FAILED: %zu queries differ from the exhaustive oracle\n",
                 mismatches);
    return 1;
  }
  std::printf("\n(every result is bit-identical to the exhaustive oracle; the saved "
              "column is the pruning payoff in postings decoded)\n");
  return 0;
}
