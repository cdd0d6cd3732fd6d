#include "scan/kb/turtle.hpp"

#include <gtest/gtest.h>

namespace scan::kb {
namespace {

TEST(TurtleParseTest, SimpleTriple) {
  TripleStore store;
  ASSERT_TRUE(ParseTurtle("<http://s> <http://p> <http://o> .", store).ok());
  EXPECT_EQ(store.size(), 1u);
}

TEST(TurtleParseTest, PrefixedNames) {
  TripleStore store;
  const auto status = ParseTurtle(
      "@prefix ex: <http://example.org/> .\n"
      "ex:alice ex:knows ex:bob .",
      store);
  ASSERT_TRUE(status.ok()) << status.ToString();
  EXPECT_EQ(store.size(), 1u);
  EXPECT_TRUE(
      store.terms().Lookup(MakeIri("http://example.org/alice")).has_value());
}

TEST(TurtleParseTest, AKeywordMeansRdfType) {
  TripleStore store;
  ASSERT_TRUE(ParseTurtle("@prefix ex: <http://e/> .\n"
                          "ex:x a ex:Thing .",
                          store)
                  .ok());
  const auto rdf_type = store.terms().Lookup(MakeIri(std::string(kRdfType)));
  ASSERT_TRUE(rdf_type.has_value());
  EXPECT_EQ(store.MatchAll({std::nullopt, *rdf_type, std::nullopt}).size(),
            1u);
}

TEST(TurtleParseTest, PredicateObjectLists) {
  TripleStore store;
  ASSERT_TRUE(ParseTurtle("@prefix ex: <http://e/> .\n"
                          "ex:s ex:p1 ex:o1 ; ex:p2 ex:o2 , ex:o3 .",
                          store)
                  .ok());
  EXPECT_EQ(store.size(), 3u);
}

TEST(TurtleParseTest, Literals) {
  TripleStore store;
  ASSERT_TRUE(ParseTurtle(
                  "@prefix ex: <http://e/> .\n"
                  "ex:s ex:str \"hello\" ; ex:int 42 ; ex:neg -7 ; "
                  "ex:dbl 2.5 ; ex:sci 1e3 .",
                  store)
                  .ok());
  EXPECT_EQ(store.size(), 5u);
  EXPECT_TRUE(store.terms().Lookup(MakeStringLiteral("hello")).has_value());
  EXPECT_TRUE(store.terms()
                  .Lookup(Term{TermKind::kLiteral, "42",
                               std::string(kXsdInteger)})
                  .has_value());
  EXPECT_TRUE(store.terms()
                  .Lookup(Term{TermKind::kLiteral, "2.5",
                               std::string(kXsdDouble)})
                  .has_value());
}

TEST(TurtleParseTest, TypedLiteralAndEscapes) {
  TripleStore store;
  ASSERT_TRUE(
      ParseTurtle("@prefix ex: <http://e/> .\n"
                  "@prefix xsd: <http://www.w3.org/2001/XMLSchema#> .\n"
                  "ex:s ex:p \"7\"^^xsd:integer ; ex:q \"a\\\"b\\nc\" .",
                  store)
          .ok());
  EXPECT_TRUE(store.terms()
                  .Lookup(Term{TermKind::kLiteral, "7",
                               std::string(kXsdInteger)})
                  .has_value());
  EXPECT_TRUE(store.terms().Lookup(MakeStringLiteral("a\"b\nc")).has_value());
}

TEST(TurtleParseTest, BlankNodes) {
  TripleStore store;
  ASSERT_TRUE(ParseTurtle("@prefix ex: <http://e/> .\n"
                          "_:b1 ex:p _:b2 .",
                          store)
                  .ok());
  EXPECT_TRUE(store.terms().Lookup(MakeBlank("b1")).has_value());
  EXPECT_TRUE(store.terms().Lookup(MakeBlank("b2")).has_value());
}

TEST(TurtleParseTest, CommentsIgnored) {
  TripleStore store;
  ASSERT_TRUE(ParseTurtle("# leading comment\n"
                          "<http://s> <http://p> <http://o> . # trailing\n"
                          "# done\n",
                          store)
                  .ok());
  EXPECT_EQ(store.size(), 1u);
}

TEST(TurtleParseTest, ErrorsCarryLocation) {
  TripleStore store;
  const auto status = ParseTurtle("<http://s> <http://p>", store);
  EXPECT_FALSE(status.ok());
  EXPECT_NE(status.message().find("line"), std::string::npos);
}

TEST(TurtleParseTest, UnknownPrefixFails) {
  TripleStore store;
  const auto status = ParseTurtle("nope:s nope:p nope:o .", store);
  EXPECT_FALSE(status.ok());
  EXPECT_EQ(status.code(), ErrorCode::kParseError);
}

TEST(TurtleParseTest, UnterminatedIriFails) {
  TripleStore store;
  EXPECT_FALSE(ParseTurtle("<http://unclosed", store).ok());
}

TEST(TurtleParseTest, UnterminatedIriReportsWhereItOpens) {
  TripleStore store;
  const auto status =
      ParseTurtle("<http://s> <http://p>\n  <http://unclosed .\n\n", store);
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.code(), ErrorCode::kParseError);
  EXPECT_NE(status.message().find("unterminated IRI at line 2, column 3"),
            std::string::npos)
      << status.message();
}

TEST(TurtleParseTest, UnterminatedLiteralReportsWhereItOpens) {
  TripleStore store;
  const auto status = ParseTurtle(
      "@prefix ex: <http://e/> .\nex:s ex:p \"never closed .\n\n", store);
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.code(), ErrorCode::kParseError);
  EXPECT_NE(
      status.message().find("unterminated string literal at line 2, column 11"),
      std::string::npos)
      << status.message();
}

TEST(TurtleParseTest, EmptyInputIsOk) {
  TripleStore store;
  EXPECT_TRUE(ParseTurtle("", store).ok());
  EXPECT_TRUE(ParseTurtle("   \n  # just a comment\n", store).ok());
  EXPECT_EQ(store.size(), 0u);
}

TEST(TurtleRoundTripTest, SerializeThenParsePreservesTriples) {
  TripleStore store;
  const std::string input =
      "@prefix ex: <http://e/> .\n"
      "ex:gatk1 a ex:Application ; ex:inputFileSize 10 ; "
      "ex:eTime 180.5 ; ex:performance \"good\" .\n"
      "ex:gatk2 a ex:Application ; ex:inputFileSize 5 .\n";
  ASSERT_TRUE(ParseTurtle(input, store).ok());
  const std::size_t original_size = store.size();

  TurtleWriter writer;
  writer.AddPrefix("ex", "http://e/");
  const std::string serialized = writer.Serialize(store);

  TripleStore reparsed;
  ASSERT_TRUE(ParseTurtle(serialized, reparsed).ok()) << serialized;
  EXPECT_EQ(reparsed.size(), original_size);

  // Every original triple must exist in the reparsed store.
  for (const Triple& t : store.MatchAll({})) {
    const Term s = store.terms().Get(t.s);
    const Term p = store.terms().Get(t.p);
    const Term o = store.terms().Get(t.o);
    const auto sid = reparsed.terms().Lookup(s);
    const auto pid = reparsed.terms().Lookup(p);
    const auto oid = reparsed.terms().Lookup(o);
    ASSERT_TRUE(sid && pid && oid)
        << "missing term after round trip: " << ToString(s) << " "
        << ToString(p) << " " << ToString(o);
    EXPECT_TRUE(reparsed.Contains(Triple{*sid, *pid, *oid}));
  }
}

TEST(TurtleWriterTest, UsesPrefixesWhenSafe) {
  TripleStore store;
  store.Add(MakeIri("http://e/s"), MakeIri("http://e/p"),
            MakeIri("http://other/o"));
  TurtleWriter writer;
  writer.AddPrefix("ex", "http://e/");
  const std::string out = writer.Serialize(store);
  EXPECT_NE(out.find("ex:s"), std::string::npos);
  EXPECT_NE(out.find("<http://other/o>"), std::string::npos);
}

TEST(TurtleRoundTripTest, IntegralValuedDoublesKeepTheirDatatype) {
  // Regression: a double literal with an integral value ("10") must not
  // come back as xsd:integer after serialize + parse.
  TripleStore store;
  store.Add(MakeIri("http://e/s"), MakeIri("http://e/p"),
            MakeDoubleLiteral(10.0));
  TurtleWriter writer;
  const std::string out = writer.Serialize(store);
  TripleStore reparsed;
  ASSERT_TRUE(ParseTurtle(out, reparsed).ok()) << out;
  ASSERT_EQ(reparsed.size(), 1u);
  const Triple t = reparsed.MatchAll({})[0];
  EXPECT_EQ(reparsed.terms().Get(t.o).datatype, kXsdDouble);
  EXPECT_DOUBLE_EQ(*NumericValue(reparsed.terms().Get(t.o)), 10.0);
}

TEST(TurtleRoundTripTest, ParsedDoubleWithIntegralLexicalKeepsType) {
  // A typed literal "7"^^xsd:double entered via parsing must survive a
  // write + re-parse cycle too.
  TripleStore store;
  ASSERT_TRUE(ParseTurtle(
                  "@prefix xsd: <http://www.w3.org/2001/XMLSchema#> .\n"
                  "<http://s> <http://p> \"7\"^^xsd:double .",
                  store)
                  .ok());
  TurtleWriter writer;
  TripleStore reparsed;
  ASSERT_TRUE(ParseTurtle(writer.Serialize(store), reparsed).ok());
  const Triple t = reparsed.MatchAll({})[0];
  EXPECT_EQ(reparsed.terms().Get(t.o).datatype, kXsdDouble);
}

}  // namespace
}  // namespace scan::kb
