#include "ddl/lexer.h"

#include <gtest/gtest.h>

namespace caddb {
namespace ddl {
namespace {

std::vector<Token> LexOk(const std::string& src) {
  Result<std::vector<Token>> r = Lex(src);
  EXPECT_TRUE(r.ok()) << r.status().ToString();
  return r.ok() ? *r : std::vector<Token>{};
}

std::vector<std::string> Texts(const std::vector<Token>& tokens) {
  std::vector<std::string> out;
  for (const Token& t : tokens) {
    if (!t.Is(Token::Kind::kEndOfFile)) out.push_back(t.text);
  }
  return out;
}

TEST(LexerTest, BasicTokens) {
  auto tokens = LexOk("obj-type Gate = attributes: Length: integer; end;");
  EXPECT_EQ(Texts(tokens),
            (std::vector<std::string>{"obj-type", "Gate", "=", "attributes",
                                      ":", "Length", ":", "integer", ";",
                                      "end", ";"}));
}

TEST(LexerTest, HyphenKeywordsMerge) {
  auto tokens = LexOk(
      "types-of-subclasses types-of-subrels inheritor-in object-of-type "
      "set-of list-of matrix-of end-domain inher-rel-type");
  for (const Token& t : tokens) {
    if (t.Is(Token::Kind::kEndOfFile)) continue;
    EXPECT_EQ(t.kind, Token::Kind::kIdent);
    EXPECT_NE(t.text.find('-'), std::string::npos);
  }
  EXPECT_EQ(tokens.size(), 10u);  // 9 keywords + EOF
}

TEST(LexerTest, MinusBetweenIdentifiersStaysMinus) {
  // `a-b` is subtraction, not a keyword fragment.
  auto tokens = LexOk("Length-Width");
  ASSERT_EQ(tokens.size(), 4u);
  EXPECT_TRUE(tokens[0].IsIdent("Length"));
  EXPECT_TRUE(tokens[1].IsSymbol("-"));
  EXPECT_TRUE(tokens[2].IsIdent("Width"));
}

TEST(LexerTest, MinusBeforeNumber) {
  auto tokens = LexOk("x - 3");
  ASSERT_EQ(tokens.size(), 4u);
  EXPECT_TRUE(tokens[1].IsSymbol("-"));
  EXPECT_EQ(tokens[2].number, 3);
}

TEST(LexerTest, SlashInsideIdentifier) {
  // The paper's domain I/O lexes as one identifier.
  auto tokens = LexOk("InOut: I/O;");
  ASSERT_EQ(tokens.size(), 5u);
  EXPECT_TRUE(tokens[2].IsIdent("I/O"));
}

TEST(LexerTest, SlashAsDivision) {
  auto tokens = LexOk("a / b");
  ASSERT_EQ(tokens.size(), 4u);
  EXPECT_TRUE(tokens[1].IsSymbol("/"));
}

TEST(LexerTest, CommentsSkipped) {
  auto tokens = LexOk("a /* comment with obj-type keywords; */ b");
  EXPECT_EQ(Texts(tokens), (std::vector<std::string>{"a", "b"}));
}

TEST(LexerTest, UnterminatedCommentFails) {
  EXPECT_EQ(Lex("a /* never closed").status().code(), Code::kParseError);
}

TEST(LexerTest, ComparisonOperators) {
  auto tokens = LexOk("< <= > >= <> =");
  EXPECT_EQ(Texts(tokens),
            (std::vector<std::string>{"<", "<=", ">", ">=", "<>", "="}));
}

TEST(LexerTest, CardinalitySymbol) {
  auto tokens = LexOk("#s in Bolt = 1;");
  EXPECT_TRUE(tokens[0].IsSymbol("#"));
  EXPECT_TRUE(tokens[1].IsIdent("s"));
}

TEST(LexerTest, NumbersAndArithmetic) {
  auto tokens = LexOk("100*Height*Width");
  ASSERT_EQ(tokens.size(), 6u);
  EXPECT_EQ(tokens[0].number, 100);
  EXPECT_TRUE(tokens[1].IsSymbol("*"));
  // Past int64 is a parse error, not an escaping std::out_of_range.
  EXPECT_EQ(LexOk("9223372036854775807")[0].number, INT64_MAX);
  EXPECT_EQ(Lex("W > 99999999999999999999").status().code(),
            Code::kParseError);
}

TEST(LexerTest, LineTrackingInErrors) {
  Status s = Lex("ok\nok\n$bad").status();
  EXPECT_EQ(s.code(), Code::kParseError);
  EXPECT_NE(s.message().find("line 3"), std::string::npos);
}

TEST(LexerTest, IncompleteHyphenKeywordFails) {
  EXPECT_EQ(Lex("types-of-bogus").status().code(), Code::kParseError);
}

TEST(LexerTest, EmptyInputYieldsEof) {
  auto tokens = LexOk("  /* only a comment */  ");
  ASSERT_EQ(tokens.size(), 1u);
  EXPECT_TRUE(tokens[0].Is(Token::Kind::kEndOfFile));
}

}  // namespace
}  // namespace ddl
}  // namespace caddb
