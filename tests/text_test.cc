#include <cstdio>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "text/corpus.h"
#include "text/record.h"
#include "text/token_dictionary.h"
#include "text/tokenizer.h"

namespace dssj {
namespace {

// --- Record -----------------------------------------------------------------

TEST(RecordTest, NormalizeSortsAndDedups) {
  std::vector<TokenId> tokens{5, 1, 5, 3, 1};
  NormalizeTokens(tokens);
  EXPECT_EQ(tokens, (std::vector<TokenId>{1, 3, 5}));
}

TEST(RecordTest, OverlapSize) {
  const auto overlap = [](std::vector<TokenId> a, std::vector<TokenId> b) {
    return OverlapSize(a, b);
  };
  EXPECT_EQ(overlap({1, 2, 3}, {2, 3, 4}), 2u);
  EXPECT_EQ(overlap({1, 2, 3}, {4, 5}), 0u);
  EXPECT_EQ(overlap({}, {1}), 0u);
  EXPECT_EQ(overlap({1, 2, 3}, {1, 2, 3}), 3u);
}

TEST(RecordTest, MakeRecordNormalizesAndStamps) {
  const RecordPtr r = MakeRecord(7, 9, {4, 4, 1}, 123);
  EXPECT_EQ(r->id, 7u);
  EXPECT_EQ(r->seq, 9u);
  EXPECT_EQ(r->timestamp, 123);
  EXPECT_EQ(r->tokens, (std::vector<TokenId>{1, 4}));
  EXPECT_EQ(r->size(), 2u);
  EXPECT_EQ(r->SerializedBytes(), 24u + 8u);
}

// --- Tokenizers ---------------------------------------------------------------

TEST(WordTokenizerTest, LowercasesAndSplits) {
  WordTokenizer t;
  EXPECT_EQ(t.Tokenize("Data, Engineering!  42"),
            (std::vector<std::string>{"data", "engineering", "42"}));
  EXPECT_TRUE(t.Tokenize("").empty());
  EXPECT_TRUE(t.Tokenize("  ,.!  ").empty());
  EXPECT_EQ(t.Tokenize("a-b_c"), (std::vector<std::string>{"a", "b", "c"}));
}

TEST(QGramTokenizerTest, SlidingGrams) {
  QGramTokenizer t(3);
  EXPECT_EQ(t.Tokenize("abcde"),
            (std::vector<std::string>{"abc", "bcd", "cde"}));
  // Whitespace collapsed, case folded.
  EXPECT_EQ(t.Tokenize("A  b"), (std::vector<std::string>{"a b"}));
  // Shorter than q: whole string.
  EXPECT_EQ(t.Tokenize("ab"), (std::vector<std::string>{"ab"}));
  EXPECT_TRUE(t.Tokenize("   ").empty());
}

// --- TokenDictionary ----------------------------------------------------------

TEST(TokenDictionaryTest, AssignsDenseIdsFirstSeen) {
  TokenDictionary dict;
  EXPECT_EQ(dict.GetOrAdd("alpha"), 0u);
  EXPECT_EQ(dict.GetOrAdd("beta"), 1u);
  EXPECT_EQ(dict.GetOrAdd("alpha"), 0u);
  EXPECT_EQ(dict.size(), 2u);
  EXPECT_EQ(dict.TokenString(1), "beta");
  EXPECT_EQ(dict.Find("beta"), 1u);
  EXPECT_EQ(dict.Find("gamma"), TokenDictionary::kNoToken);
}

TEST(TokenDictionaryTest, ReorderByFrequencyPutsRareFirst) {
  TokenDictionary dict;
  const TokenId common = dict.GetOrAdd("common");
  const TokenId rare = dict.GetOrAdd("rare");
  const TokenId mid = dict.GetOrAdd("mid");
  for (int i = 0; i < 10; ++i) dict.CountDocumentOccurrence(common);
  for (int i = 0; i < 5; ++i) dict.CountDocumentOccurrence(mid);
  dict.CountDocumentOccurrence(rare);
  const auto remap = dict.ReorderByFrequency();
  EXPECT_EQ(remap[rare], 0u);
  EXPECT_EQ(remap[mid], 1u);
  EXPECT_EQ(remap[common], 2u);
  dict.ApplyRemap(remap);
  EXPECT_EQ(dict.TokenString(0), "rare");
  EXPECT_EQ(dict.Find("common"), 2u);
  EXPECT_EQ(dict.DocumentFrequency(0), 1u);
}

TEST(TokenDictionaryTest, RemapTokensResorts) {
  std::vector<TokenId> remap{2, 0, 1};  // old 0->2, 1->0, 2->1
  std::vector<TokenId> tokens{0, 2};
  RemapTokens(remap, tokens);
  EXPECT_EQ(tokens, (std::vector<TokenId>{1, 2}));
}

// --- Corpus ---------------------------------------------------------------------

TEST(CorpusTest, BuildFromLinesProducesFrequencyOrderedRecords) {
  const std::vector<std::string> lines{
      "the quick fox",
      "the lazy dog",
      "the quick dog",
  };
  WordTokenizer tokenizer;
  const Corpus corpus = BuildCorpusFromLines(lines, tokenizer);
  ASSERT_EQ(corpus.records.size(), 3u);
  EXPECT_EQ(corpus.dictionary.size(), 5u);
  // "the" occurs in all 3 documents → highest id.
  const TokenId the_id = corpus.dictionary.Find("the");
  EXPECT_EQ(the_id, 4u);
  // Every record's tokens ascend and end with "the".
  for (const RecordPtr& r : corpus.records) {
    ASSERT_EQ(r->size(), 3u);
    EXPECT_TRUE(std::is_sorted(r->tokens.begin(), r->tokens.end()));
    EXPECT_EQ(r->tokens.back(), the_id);
  }
  // seq == position.
  EXPECT_EQ(corpus.records[2]->seq, 2u);
}

TEST(CorpusTest, EmptyLinesYieldEmptyRecords) {
  WordTokenizer tokenizer;
  const Corpus corpus = BuildCorpusFromLines({"a b", "", "c"}, tokenizer);
  ASSERT_EQ(corpus.records.size(), 3u);
  EXPECT_EQ(corpus.records[1]->size(), 0u);
}

TEST(CorpusTest, StatsSummarizeCollection) {
  WordTokenizer tokenizer;
  const Corpus corpus = BuildCorpusFromLines(
      {"a b c", "a b", "a a a", "d e f g"}, tokenizer);
  const CorpusStats stats = ComputeCorpusStats(corpus.records);
  EXPECT_EQ(stats.num_records, 4u);
  EXPECT_EQ(stats.vocabulary_size, 7u);
  EXPECT_EQ(stats.min_length, 1u);  // "a a a" collapses to {a}
  EXPECT_EQ(stats.max_length, 4u);
  EXPECT_DOUBLE_EQ(stats.avg_length, (3 + 2 + 1 + 4) / 4.0);
  EXPECT_GT(stats.top1pct_token_mass, 0.0);
}

TEST(CorpusTest, EmptyStats) {
  const CorpusStats stats = ComputeCorpusStats({});
  EXPECT_EQ(stats.num_records, 0u);
  EXPECT_EQ(stats.min_length, 0u);
}

TEST(CorpusTest, BinaryRoundTrip) {
  WordTokenizer tokenizer;
  const Corpus corpus =
      BuildCorpusFromLines({"alpha beta", "", "gamma delta epsilon"}, tokenizer);
  const std::string path = ::testing::TempDir() + "/records_roundtrip.bin";
  ASSERT_TRUE(SaveRecordsBinary(path, corpus.records).ok());
  auto loaded = LoadRecordsBinary(path);
  ASSERT_TRUE(loaded.ok());
  ASSERT_EQ(loaded.value().size(), corpus.records.size());
  for (size_t i = 0; i < corpus.records.size(); ++i) {
    EXPECT_EQ(loaded.value()[i]->id, corpus.records[i]->id);
    EXPECT_EQ(loaded.value()[i]->seq, corpus.records[i]->seq);
    EXPECT_EQ(loaded.value()[i]->tokens, corpus.records[i]->tokens);
  }
  std::remove(path.c_str());
}

TEST(CorpusTest, LoadErrorsAreStatuses) {
  EXPECT_EQ(LoadRecordsBinary("/nonexistent/path.bin").status().code(),
            StatusCode::kNotFound);
  WordTokenizer tokenizer;
  EXPECT_EQ(LoadCorpusFromFile("/nonexistent/corpus.txt", tokenizer).status().code(),
            StatusCode::kNotFound);
  // Corrupt magic.
  const std::string path = ::testing::TempDir() + "/bad_magic.bin";
  {
    std::FILE* f = std::fopen(path.c_str(), "wb");
    ASSERT_NE(f, nullptr);
    std::fwrite("nope", 1, 4, f);
    std::fclose(f);
  }
  EXPECT_EQ(LoadRecordsBinary(path).status().code(), StatusCode::kInvalidArgument);
  std::remove(path.c_str());
}

TEST(WordTokenizerTest, CapsPathologicalTokenRuns) {
  WordTokenizer t;
  const std::string run(2 * WordTokenizer::kMaxTokenBytes + 7, 'x');
  const std::vector<std::string> tokens = t.Tokenize(run);
  ASSERT_EQ(tokens.size(), 3u);
  EXPECT_EQ(tokens[0].size(), WordTokenizer::kMaxTokenBytes);
  EXPECT_EQ(tokens[1].size(), WordTokenizer::kMaxTokenBytes);
  EXPECT_EQ(tokens[2].size(), 7u);
}

TEST(CorpusTest, IsValidUtf8) {
  EXPECT_TRUE(IsValidUtf8("plain ascii"));
  EXPECT_TRUE(IsValidUtf8("caf\xc3\xa9 \xe2\x82\xac \xf0\x9f\x98\x80"));
  EXPECT_TRUE(IsValidUtf8(""));
  EXPECT_FALSE(IsValidUtf8("\xff"));                  // not a lead byte
  EXPECT_FALSE(IsValidUtf8("\x80"));                  // stray continuation
  EXPECT_FALSE(IsValidUtf8("\xc3"));                  // truncated sequence
  EXPECT_FALSE(IsValidUtf8("\xc0\xaf"));              // overlong 2-byte
  EXPECT_FALSE(IsValidUtf8("\xe0\x80\xaf"));          // overlong 3-byte
  EXPECT_FALSE(IsValidUtf8("\xed\xa0\x80"));          // UTF-16 surrogate
  EXPECT_FALSE(IsValidUtf8("\xf4\x90\x80\x80"));      // beyond U+10FFFF
}

TEST(CorpusTest, MalformedFileIsSanitizedAndCounted) {
  const std::string path = ::testing::TempDir() + "/malformed_corpus.txt";
  {
    std::FILE* f = std::fopen(path.c_str(), "wb");
    ASSERT_NE(f, nullptr);
    std::fputs("clean line\n", f);
    std::fputs("bad \xff\xfe utf8\n", f);  // invalid bytes mid-line
    std::fputs("\n", f);                   // empty record
    const std::string overlong(200, 'y');
    std::fputs((overlong + " trailing\n").c_str(), f);
    std::fclose(f);
  }
  WordTokenizer tokenizer;
  CorpusOptions options;
  options.max_line_bytes = 100;
  auto corpus = LoadCorpusFromFile(path, tokenizer, options);
  ASSERT_TRUE(corpus.ok());
  ASSERT_EQ(corpus.value().records.size(), 4u);
  EXPECT_EQ(corpus.value().hygiene.invalid_utf8_lines, 1u);
  EXPECT_EQ(corpus.value().hygiene.overlong_lines, 1u);
  EXPECT_EQ(corpus.value().hygiene.empty_records, 1u);
  // The invalid bytes became separators: "bad" and "utf8" survive.
  EXPECT_EQ(corpus.value().records[1]->size(), 2u);
  // The overlong line was truncated to one 100-byte token run.
  EXPECT_EQ(corpus.value().records[3]->size(), 1u);

  // Strict mode fails fast with a line-numbered status.
  options.strict = true;
  auto strict = LoadCorpusFromFile(path, tokenizer, options);
  ASSERT_FALSE(strict.ok());
  EXPECT_EQ(strict.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(strict.status().message().find(":2:"), std::string::npos);
  std::remove(path.c_str());
}

TEST(CorpusTest, TruncationMidUtf8SequenceIsRepaired) {
  const std::string path = ::testing::TempDir() + "/truncated_utf8.txt";
  {
    std::FILE* f = std::fopen(path.c_str(), "wb");
    ASSERT_NE(f, nullptr);
    // 9 bytes of ascii then a 2-byte sequence straddling the 10-byte cap.
    std::fputs("aaaa bbbb\xc3\xa9 tail\n", f);
    std::fclose(f);
  }
  WordTokenizer tokenizer;
  CorpusOptions options;
  options.max_line_bytes = 10;
  auto corpus = LoadCorpusFromFile(path, tokenizer, options);
  ASSERT_TRUE(corpus.ok());
  EXPECT_EQ(corpus.value().hygiene.overlong_lines, 1u);
  EXPECT_EQ(corpus.value().hygiene.invalid_utf8_lines, 1u);
  ASSERT_EQ(corpus.value().records.size(), 1u);
  EXPECT_EQ(corpus.value().records[0]->size(), 2u);  // "aaaa", "bbbb"
  std::remove(path.c_str());
}

TEST(CorpusTest, FileRoundTripThroughLoadCorpusFromFile) {
  const std::string path = ::testing::TempDir() + "/corpus_lines.txt";
  {
    std::FILE* f = std::fopen(path.c_str(), "w");
    ASSERT_NE(f, nullptr);
    std::fputs("hello world\nhello again\n", f);
    std::fclose(f);
  }
  WordTokenizer tokenizer;
  auto corpus = LoadCorpusFromFile(path, tokenizer);
  ASSERT_TRUE(corpus.ok());
  EXPECT_EQ(corpus.value().records.size(), 2u);
  EXPECT_EQ(corpus.value().dictionary.size(), 3u);
  std::remove(path.c_str());
}

// --- Sharded front-end loading (LoadCorpusFromFileSharded) ---------------

/// Deterministic messy corpus: duplicates, empty lines, punctuation, an
/// invalid-UTF-8 line, an overlong line, and no trailing newline — the
/// cases where a sharded scan could diverge from the serial one.
std::string WriteMessyCorpus(const std::string& name, bool trailing_newline) {
  const std::string path = ::testing::TempDir() + "/" + name;
  std::FILE* f = std::fopen(path.c_str(), "wb");
  EXPECT_NE(f, nullptr);
  uint64_t rng = 0x9e3779b97f4a7c15ULL;
  for (int i = 0; i < 500; ++i) {
    rng = rng * 6364136223846793005ULL + 1442695040888963407ULL;
    const int words = static_cast<int>(rng >> 60);
    for (int w = 0; w < words; ++w) {
      std::fprintf(f, "word%llu ",
                   static_cast<unsigned long long>((rng >> (w * 4)) % 97));
    }
    if (i % 31 == 7) std::fputs("\xff\xfe", f);          // invalid UTF-8
    if (i % 47 == 11) std::fputs(std::string(300, 'z').c_str(), f);  // overlong
    if (i % 13 == 5) std::fputs("Punct,u-ation!", f);
    if (i != 499 || trailing_newline) std::fputs("\n", f);
  }
  std::fclose(f);
  return path;
}

void ExpectCorpusIdentical(const Corpus& a, const Corpus& b, const std::string& label) {
  ASSERT_EQ(a.records.size(), b.records.size()) << label;
  for (size_t i = 0; i < a.records.size(); ++i) {
    EXPECT_EQ(a.records[i]->id, b.records[i]->id) << label << " record " << i;
    EXPECT_EQ(a.records[i]->seq, b.records[i]->seq) << label << " record " << i;
    ASSERT_EQ(a.records[i]->tokens, b.records[i]->tokens) << label << " record " << i;
  }
  ASSERT_EQ(a.dictionary.size(), b.dictionary.size()) << label;
  for (TokenId id = 0; id < a.dictionary.size(); ++id) {
    EXPECT_EQ(a.dictionary.TokenString(id), b.dictionary.TokenString(id)) << label;
    EXPECT_EQ(a.dictionary.DocumentFrequency(id), b.dictionary.DocumentFrequency(id))
        << label;
  }
  EXPECT_EQ(a.hygiene.overlong_lines, b.hygiene.overlong_lines) << label;
  EXPECT_EQ(a.hygiene.invalid_utf8_lines, b.hygiene.invalid_utf8_lines) << label;
  EXPECT_EQ(a.hygiene.empty_records, b.hygiene.empty_records) << label;
}

TEST(ShardedCorpusTest, ByteIdenticalToSerialLoadForEveryLaneCount) {
  for (bool trailing : {true, false}) {
    const std::string path = WriteMessyCorpus(
        trailing ? "sharded_nl.txt" : "sharded_nonl.txt", trailing);
    WordTokenizer tokenizer;
    CorpusOptions options;
    options.max_line_bytes = 200;
    auto serial = LoadCorpusFromFile(path, tokenizer, options);
    ASSERT_TRUE(serial.ok());
    for (int lanes : {1, 2, 3, 4, 7}) {
      auto sharded = LoadCorpusFromFileSharded(path, tokenizer, lanes, options);
      ASSERT_TRUE(sharded.ok()) << "lanes=" << lanes;
      ExpectCorpusIdentical(serial.value(), sharded.value(),
                            "lanes=" + std::to_string(lanes) +
                                (trailing ? " (trailing \\n)" : " (no trailing \\n)"));
    }
    std::remove(path.c_str());
  }
}

TEST(ShardedCorpusTest, StrictModeErrorsMatchSerialLoad) {
  const std::string path = WriteMessyCorpus("sharded_strict.txt", true);
  WordTokenizer tokenizer;
  CorpusOptions options;
  options.max_line_bytes = 200;
  options.strict = true;
  auto serial = LoadCorpusFromFile(path, tokenizer, options);
  ASSERT_FALSE(serial.ok());
  for (int lanes : {1, 3, 5}) {
    auto sharded = LoadCorpusFromFileSharded(path, tokenizer, lanes, options);
    ASSERT_FALSE(sharded.ok()) << "lanes=" << lanes;
    EXPECT_EQ(sharded.status().code(), serial.status().code()) << "lanes=" << lanes;
    // Same first malformed line, same global line number, same reason.
    EXPECT_EQ(sharded.status().message(), serial.status().message()) << "lanes=" << lanes;
  }
  std::remove(path.c_str());
}

TEST(ShardedCorpusTest, ShardLineRangesConcatenateAndAlign) {
  const std::string data = "one\ntwo\nthree\nfour\nfive\nsix\nseven no newline";
  for (int shards : {1, 2, 3, 5, 20}) {
    const auto ranges = ShardLineRanges(data, shards);
    ASSERT_EQ(ranges.size(), static_cast<size_t>(shards));
    EXPECT_EQ(ranges.front().first, 0u);
    EXPECT_EQ(ranges.back().second, data.size());
    for (size_t s = 0; s < ranges.size(); ++s) {
      EXPECT_LE(ranges[s].first, ranges[s].second);
      if (s > 0) {
        EXPECT_EQ(ranges[s].first, ranges[s - 1].second);
      }
      // Every non-degenerate boundary starts right after a newline.
      const size_t start = ranges[s].first;
      if (start > 0 && start < data.size()) {
        EXPECT_EQ(data[start - 1], '\n');
      }
    }
  }
  EXPECT_TRUE(ShardLineRanges("", 4).size() == 4u);
}

// The SIMD classify pass must agree with the scalar definition on every
// byte value, including the sign-bit range and chunk boundaries.
TEST(WordTokenizerTest, WideClassifyMatchesScalarReference) {
  WordTokenizer tokenizer;
  // Reference: the documented semantics, written scalar.
  const auto reference = [](std::string_view text) {
    std::vector<std::string> out;
    std::string cur;
    for (unsigned char c : text) {
      const bool tok = (c >= '0' && c <= '9') || (c >= 'A' && c <= 'Z') ||
                       (c >= 'a' && c <= 'z');
      if (tok) {
        if (cur.size() == WordTokenizer::kMaxTokenBytes) {
          out.push_back(cur);
          cur.clear();
        }
        cur.push_back((c >= 'A' && c <= 'Z') ? static_cast<char>(c + 32)
                                             : static_cast<char>(c));
      } else if (!cur.empty()) {
        out.push_back(cur);
        cur.clear();
      }
    }
    if (!cur.empty()) out.push_back(cur);
    return out;
  };
  // All 256 byte values straddling 16-byte chunk boundaries.
  std::string all;
  for (int c = 0; c < 256; ++c) {
    all.push_back(static_cast<char>(c));
    all.push_back(static_cast<char>(255 - c));
  }
  uint64_t rng = 12345;
  std::vector<std::string> cases = {all, "", "a", "Hello, World!", std::string(40, 'Q')};
  for (int i = 0; i < 200; ++i) {
    rng = rng * 6364136223846793005ULL + 1442695040888963407ULL;
    std::string s;
    const size_t len = (rng >> 48) % 70;
    for (size_t k = 0; k < len; ++k) s.push_back(static_cast<char>((rng >> (k % 56)) & 0xff));
    cases.push_back(std::move(s));
  }
  for (const std::string& text : cases) {
    EXPECT_EQ(tokenizer.Tokenize(text), reference(text)) << "input bytes: " << text.size();
  }
}

}  // namespace
}  // namespace dssj
