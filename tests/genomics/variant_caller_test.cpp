#include "scan/genomics/variant_caller.hpp"

#include <gtest/gtest.h>

#include "scan/genomics/sam.hpp"
#include "scan/genomics/synthetic.hpp"
#include "scan/genomics/vcf.hpp"

namespace scan::genomics {
namespace {

/// Applies SNVs to a copy of the reference (the "tumour" sequence).
FastaRecord ApplyVariants(const FastaRecord& reference, const VcfFile& truth) {
  FastaRecord mutated = reference;
  for (const VcfRecord& v : truth.records) {
    mutated.sequence[static_cast<std::size_t>(v.pos - 1)] = v.alt[0];
  }
  return mutated;
}

TEST(PileupTest, CountsBasesAtAlignedPositions) {
  FastaRecord ref{"chr1", "", "ACGTACGT"};
  SamFile sam;
  sam.header = MakeHeader({{"chr1", 8}});
  sam.records.push_back({"r1", 0, "chr1", 1, 60, "4M", "*", 0, 0, "ACGT", "IIII"});
  sam.records.push_back({"r2", 0, "chr1", 3, 60, "4M", "*", 0, 0, "GTAC", "IIII"});
  const auto pileup = BuildPileup(ref, sam);
  ASSERT_TRUE(pileup.ok());
  EXPECT_EQ(pileup->DepthAt(0), 1u);
  EXPECT_EQ(pileup->DepthAt(2), 2u);  // covered by both reads
  EXPECT_EQ(pileup->DepthAt(7), 0u);
  // Position 2 (0-based): both reads say 'G'.
  EXPECT_EQ(pileup->counts[2][2], 2u);
}

TEST(PileupTest, SkipsUnusableRecords) {
  FastaRecord ref{"chr1", "", "ACGTACGT"};
  SamFile sam;
  sam.records.push_back({"other", 0, "chr2", 1, 60, "4M", "*", 0, 0, "ACGT", "IIII"});
  sam.records.push_back({"unmapped", 4, "*", 0, 0, "*", "*", 0, 0, "AC", "II"});
  sam.records.push_back({"clipped", 0, "chr1", 1, 60, "2M2S", "*", 0, 0, "ACGT", "IIII"});
  sam.records.push_back({"overrun", 0, "chr1", 7, 60, "4M", "*", 0, 0, "ACGT", "IIII"});
  sam.records.push_back({"good", 0, "chr1", 1, 60, "4M", "*", 0, 0, "ACGT", "IIII"});
  std::size_t skipped = 0;
  const auto pileup = BuildPileup(ref, sam, {}, &skipped);
  ASSERT_TRUE(pileup.ok());
  EXPECT_EQ(skipped, 4u);
  EXPECT_EQ(pileup->DepthAt(0), 1u);
}

TEST(PileupTest, LowQualityBasesDoNotVote) {
  FastaRecord ref{"chr1", "", "AAAA"};
  SamFile sam;
  sam.records.push_back({"r", 0, "chr1", 1, 60, "4M", "*", 0, 0, "AAAA", "I#I#"});
  CallerOptions options;
  options.min_base_quality = 10;  // '#' = Q2 drops out
  const auto pileup = BuildPileup(ref, sam, options);
  ASSERT_TRUE(pileup.ok());
  EXPECT_EQ(pileup->DepthAt(0), 1u);
  EXPECT_EQ(pileup->DepthAt(1), 0u);
}

TEST(PileupTest, RejectsEmptyReference) {
  EXPECT_FALSE(BuildPileup(FastaRecord{"x", "", ""}, SamFile{}).ok());
}

/// `prefix` followed by `i`. Appended piecewise: GCC 12's -O3 -Wrestrict
/// misfires on `"literal" + std::string`.
std::string ReadName(char prefix, int i) {
  std::string name(1, prefix);
  name += std::to_string(i);
  return name;
}

TEST(CallerTest, CallsPlantedHomozygousVariant) {
  FastaRecord ref{"chr1", "", "AAAAAAAAAA"};
  SamFile sam;
  // 6 reads all showing 'C' at position 5 (1-based).
  for (int i = 0; i < 6; ++i) {
    sam.records.push_back({ReadName('r', i), 0, "chr1", 3, 60, "5M",
                           "*", 0, 0, "AACAA", "IIIII"});
  }
  const auto calls = CallVariants(ref, sam);
  ASSERT_TRUE(calls.ok());
  ASSERT_EQ(calls->records.size(), 1u);
  EXPECT_EQ(calls->records[0].pos, 5);
  EXPECT_EQ(calls->records[0].ref, "A");
  EXPECT_EQ(calls->records[0].alt, "C");
  EXPECT_GT(calls->records[0].qual, 30.0);
  EXPECT_TRUE(IsSorted(*calls));
}

TEST(CallerTest, DepthThresholdSuppressesThinCalls) {
  FastaRecord ref{"chr1", "", "AAAA"};
  SamFile sam;
  for (int i = 0; i < 3; ++i) {  // below min_depth = 4
    sam.records.push_back({ReadName('r', i), 0, "chr1", 1, 60, "4M",
                           "*", 0, 0, "ACAA", "IIII"});
  }
  const auto calls = CallVariants(ref, sam);
  ASSERT_TRUE(calls.ok());
  EXPECT_TRUE(calls->records.empty());
}

TEST(CallerTest, FractionThresholdSuppressesNoise) {
  FastaRecord ref{"chr1", "", "AAAA"};
  SamFile sam;
  // 6 reads: 3 say C, 3 say A at position 2 -> 50% < 70% threshold.
  for (int i = 0; i < 3; ++i) {
    sam.records.push_back({ReadName('c', i), 0, "chr1", 1, 60, "4M",
                           "*", 0, 0, "ACAA", "IIII"});
    sam.records.push_back({ReadName('a', i), 0, "chr1", 1, 60, "4M",
                           "*", 0, 0, "AAAA", "IIII"});
  }
  const auto calls = CallVariants(ref, sam);
  ASSERT_TRUE(calls.ok());
  EXPECT_TRUE(calls->records.empty());
}

TEST(CallerTest, EndToEndRecoversPlantedVariants) {
  // Plant 25 SNVs, sequence the mutated genome at ~25x with 1% errors,
  // align (coordinates carry over 1:1 for substitutions), call, compare.
  SyntheticGenerator gen(21);
  const FastaRecord ref = gen.Reference("chr1", 3000);
  const VcfFile truth = gen.Variants(ref, 25);
  FastaRecord mutated = ApplyVariants(ref, truth);

  ReadSimSpec spec;
  spec.read_count = 1000;  // 1000 * 75 / 3000 = 25x coverage
  spec.read_length = 75;
  SamFile aligned = gen.AlignedReads({mutated}, spec);

  const auto calls = CallVariants(ref, aligned);
  ASSERT_TRUE(calls.ok());
  const CallAccuracy accuracy = CompareCalls(truth, *calls);
  EXPECT_GT(accuracy.Recall(), 0.9) << "TP=" << accuracy.true_positives
                                    << " FN=" << accuracy.false_negatives;
  EXPECT_GT(accuracy.Precision(), 0.9)
      << "FP=" << accuracy.false_positives;
}

TEST(CallerTest, SequencingErrorsDoNotFloodCalls) {
  // No planted variants + noisy reads: precision guard — the caller must
  // stay (near) silent.
  SyntheticGenerator gen(23);
  const FastaRecord ref = gen.Reference("chr1", 2000);
  ReadSimSpec spec;
  spec.read_count = 600;
  spec.read_length = 100;  // ~30x
  spec.error_rate = 0.02;  // errors carry quality '#', filtered by Q floor
  SamFile aligned = gen.AlignedReads({ref}, spec);
  // AlignedReads produces perfect reads; inject errors manually with low
  // quality so the Q-floor logic is exercised.
  RandomStream noise(7, "test-noise");
  for (SamRecord& rec : aligned.records) {
    for (std::size_t i = 0; i < rec.seq.size(); ++i) {
      if (noise.Uniform() < 0.02) {
        rec.seq[i] = rec.seq[i] == 'A' ? 'C' : 'A';
        rec.qual[i] = '#';
      }
    }
  }
  const auto calls = CallVariants(ref, aligned);
  ASSERT_TRUE(calls.ok());
  EXPECT_LE(calls->records.size(), 2u);
}

TEST(AccuracyTest, CompareCallsCountsCorrectly) {
  VcfFile truth;
  truth.records = {{"c", 10, ".", "A", "T", 50, "PASS", "."},
                   {"c", 20, ".", "G", "C", 50, "PASS", "."}};
  VcfFile calls;
  calls.records = {{"c", 10, ".", "A", "T", 50, "PASS", "."},   // TP
                   {"c", 30, ".", "T", "A", 50, "PASS", "."},   // FP
                   {"c", 20, ".", "G", "A", 50, "PASS", "."}};  // wrong alt: FP
  const CallAccuracy accuracy = CompareCalls(truth, calls);
  EXPECT_EQ(accuracy.true_positives, 1u);
  EXPECT_EQ(accuracy.false_positives, 2u);
  EXPECT_EQ(accuracy.false_negatives, 1u);
  EXPECT_DOUBLE_EQ(accuracy.Precision(), 1.0 / 3.0);
  EXPECT_DOUBLE_EQ(accuracy.Recall(), 0.5);
}

TEST(AccuracyTest, EmptySetsHandled) {
  const CallAccuracy accuracy = CompareCalls(VcfFile{}, VcfFile{});
  EXPECT_DOUBLE_EQ(accuracy.Precision(), 0.0);
  EXPECT_DOUBLE_EQ(accuracy.Recall(), 0.0);
}

}  // namespace
}  // namespace scan::genomics
