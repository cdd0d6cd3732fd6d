#include "scan/kb/turtle.hpp"

#include <cctype>
#include <map>
#include <sstream>

#include "scan/common/str.hpp"

namespace scan::kb {

namespace {

/// A 1-based position in the input.
struct Location {
  std::size_t line = 1;
  std::size_t column = 1;
};

/// Cursor over the input with line/column tracking for diagnostics.
class Cursor {
 public:
  explicit Cursor(std::string_view text) : text_(text) {}

  [[nodiscard]] bool AtEnd() const { return pos_ >= text_.size(); }
  [[nodiscard]] char Peek() const { return AtEnd() ? '\0' : text_[pos_]; }
  [[nodiscard]] char PeekAt(std::size_t offset) const {
    return pos_ + offset >= text_.size() ? '\0' : text_[pos_ + offset];
  }

  char Advance() {
    const char c = text_[pos_++];
    if (c == '\n') {
      ++line_;
      column_ = 1;
    } else {
      ++column_;
    }
    return c;
  }

  void SkipWhitespaceAndComments() {
    for (;;) {
      while (!AtEnd() && std::isspace(static_cast<unsigned char>(Peek())) != 0) {
        Advance();
      }
      if (!AtEnd() && Peek() == '#') {
        while (!AtEnd() && Peek() != '\n') Advance();
        continue;
      }
      return;
    }
  }

  [[nodiscard]] Location location() const { return {line_, column_}; }

 private:
  std::string_view text_;
  std::size_t pos_ = 0;
  std::size_t line_ = 1;
  std::size_t column_ = 1;
};

class TurtleParser {
 public:
  TurtleParser(std::string_view text, TripleStore& store)
      : cur_(text), store_(store) {}

  Status Run() {
    for (;;) {
      cur_.SkipWhitespaceAndComments();
      if (cur_.AtEnd()) return Status::Ok();
      if (cur_.Peek() == '@') {
        SCAN_RETURN_IF_ERROR(ParsePrefixDirective());
        continue;
      }
      SCAN_RETURN_IF_ERROR(ParseStatement());
    }
  }

 private:
  Status Fail(std::string_view what) { return FailAt(what, cur_.location()); }

  /// A token left open at end of input is reported where it opened, not
  /// at the end of the input.
  static Status FailAt(std::string_view what, Location at) {
    return ParseError(std::string(what) + " at line " +
                      std::to_string(at.line) + ", column " +
                      std::to_string(at.column));
  }

  Status ParsePrefixDirective() {
    cur_.Advance();  // '@'
    std::string keyword = ReadWord();
    if (keyword != "prefix") return Fail("expected @prefix");
    cur_.SkipWhitespaceAndComments();
    const Location opened = cur_.location();
    std::string name;
    while (!cur_.AtEnd() && cur_.Peek() != ':') name += cur_.Advance();
    if (cur_.AtEnd()) return FailAt("unterminated prefix name", opened);
    cur_.Advance();  // ':'
    cur_.SkipWhitespaceAndComments();
    Term iri;
    SCAN_RETURN_IF_ERROR(ParseIriRef(iri));
    prefixes_[name] = iri.lexical;
    cur_.SkipWhitespaceAndComments();
    if (cur_.Peek() != '.') return Fail("expected '.' after @prefix");
    cur_.Advance();
    return Status::Ok();
  }

  Status ParseStatement() {
    Term subject;
    SCAN_RETURN_IF_ERROR(ParseSubject(subject));
    for (;;) {
      cur_.SkipWhitespaceAndComments();
      Term predicate;
      SCAN_RETURN_IF_ERROR(ParsePredicate(predicate));
      for (;;) {
        cur_.SkipWhitespaceAndComments();
        Term object;
        SCAN_RETURN_IF_ERROR(ParseObject(object));
        store_.Add(subject, predicate, object);
        cur_.SkipWhitespaceAndComments();
        if (cur_.Peek() == ',') {
          cur_.Advance();
          continue;
        }
        break;
      }
      if (cur_.Peek() == ';') {
        cur_.Advance();
        cur_.SkipWhitespaceAndComments();
        // Tolerate trailing `;` before `.` (common Turtle style).
        if (cur_.Peek() == '.') break;
        continue;
      }
      break;
    }
    cur_.SkipWhitespaceAndComments();
    if (cur_.Peek() != '.') return Fail("expected '.' ending statement");
    cur_.Advance();
    return Status::Ok();
  }

  Status ParseSubject(Term& out) {
    cur_.SkipWhitespaceAndComments();
    const char c = cur_.Peek();
    if (c == '<') return ParseIriRef(out);
    if (c == '_' && cur_.PeekAt(1) == ':') return ParseBlank(out);
    return ParsePrefixedName(out);
  }

  Status ParsePredicate(Term& out) {
    cur_.SkipWhitespaceAndComments();
    if (cur_.Peek() == '<') return ParseIriRef(out);
    // `a` keyword.
    if (cur_.Peek() == 'a' &&
        (std::isspace(static_cast<unsigned char>(cur_.PeekAt(1))) != 0)) {
      cur_.Advance();
      out = MakeIri(std::string(kRdfType));
      return Status::Ok();
    }
    return ParsePrefixedName(out);
  }

  Status ParseObject(Term& out) {
    cur_.SkipWhitespaceAndComments();
    const char c = cur_.Peek();
    if (c == '<') return ParseIriRef(out);
    if (c == '"') return ParseLiteral(out);
    if (c == '_' && cur_.PeekAt(1) == ':') return ParseBlank(out);
    if (c == '+' || c == '-' || std::isdigit(static_cast<unsigned char>(c)) != 0) {
      return ParseNumber(out);
    }
    if (c == 't' || c == 'f') {
      // booleans serialize as plain literals
      const std::string word = PeekWord();
      if (word == "true" || word == "false") {
        (void)ReadWord();
        out = MakeStringLiteral(word);
        return Status::Ok();
      }
    }
    return ParsePrefixedName(out);
  }

  Status ParseIriRef(Term& out) {
    if (cur_.Peek() != '<') return Fail("expected '<'");
    const Location opened = cur_.location();
    cur_.Advance();
    std::string iri;
    while (!cur_.AtEnd() && cur_.Peek() != '>') iri += cur_.Advance();
    if (cur_.AtEnd()) return FailAt("unterminated IRI", opened);
    cur_.Advance();  // '>'
    out = MakeIri(std::move(iri));
    return Status::Ok();
  }

  Status ParseBlank(Term& out) {
    cur_.Advance();  // '_'
    cur_.Advance();  // ':'
    std::string label = ReadWord();
    if (label.empty()) return Fail("empty blank node label");
    out = MakeBlank(std::move(label));
    return Status::Ok();
  }

  Status ParsePrefixedName(Term& out) {
    std::string prefix;
    while (!cur_.AtEnd() && (IsNameChar(cur_.Peek()) || cur_.Peek() == '.')) {
      if (cur_.Peek() == '.' && !IsNameChar(cur_.PeekAt(1))) break;
      prefix += cur_.Advance();
    }
    if (cur_.Peek() != ':') {
      return Fail("expected prefixed name (missing ':')");
    }
    cur_.Advance();
    std::string local;
    while (!cur_.AtEnd() && (IsNameChar(cur_.Peek()) || cur_.Peek() == '.')) {
      if (cur_.Peek() == '.' && !IsNameChar(cur_.PeekAt(1))) break;
      local += cur_.Advance();
    }
    const auto it = prefixes_.find(prefix);
    if (it == prefixes_.end()) {
      return Fail("unknown prefix '" + prefix + "'");
    }
    out = MakeIri(it->second + local);
    return Status::Ok();
  }

  Status ParseLiteral(Term& out) {
    const Location opened = cur_.location();
    cur_.Advance();  // opening quote
    std::string value;
    for (;;) {
      if (cur_.AtEnd()) return FailAt("unterminated string literal", opened);
      char c = cur_.Advance();
      if (c == '\\') {
        if (cur_.AtEnd()) return Fail("dangling escape");
        const char esc = cur_.Advance();
        switch (esc) {
          case 'n':
            value += '\n';
            break;
          case 't':
            value += '\t';
            break;
          case 'r':
            value += '\r';
            break;
          case '"':
            value += '"';
            break;
          case '\\':
            value += '\\';
            break;
          default:
            return Fail("unsupported escape");
        }
        continue;
      }
      if (c == '"') break;
      value += c;
    }
    // Optional datatype.
    if (cur_.Peek() == '^' && cur_.PeekAt(1) == '^') {
      cur_.Advance();
      cur_.Advance();
      Term datatype;
      if (cur_.Peek() == '<') {
        SCAN_RETURN_IF_ERROR(ParseIriRef(datatype));
      } else {
        SCAN_RETURN_IF_ERROR(ParsePrefixedName(datatype));
      }
      out = Term{TermKind::kLiteral, std::move(value), datatype.lexical};
      return Status::Ok();
    }
    // Language tags are tolerated and discarded.
    if (cur_.Peek() == '@') {
      cur_.Advance();
      (void)ReadWord();
    }
    out = MakeStringLiteral(std::move(value));
    return Status::Ok();
  }

  Status ParseNumber(Term& out) {
    std::string text;
    if (cur_.Peek() == '+' || cur_.Peek() == '-') text += cur_.Advance();
    bool is_double = false;
    while (!cur_.AtEnd()) {
      const char c = cur_.Peek();
      if (std::isdigit(static_cast<unsigned char>(c)) != 0) {
        text += cur_.Advance();
      } else if (c == '.' &&
                 std::isdigit(static_cast<unsigned char>(cur_.PeekAt(1))) != 0) {
        is_double = true;
        text += cur_.Advance();
      } else if (c == 'e' || c == 'E') {
        is_double = true;
        text += cur_.Advance();
        if (cur_.Peek() == '+' || cur_.Peek() == '-') text += cur_.Advance();
      } else {
        break;
      }
    }
    if (is_double) {
      const auto v = ParseDouble(text);
      if (!v) return Fail("malformed double literal");
      out = Term{TermKind::kLiteral, text, std::string(kXsdDouble)};
    } else {
      const auto v = ParseInt(text);
      if (!v) return Fail("malformed integer literal");
      out = Term{TermKind::kLiteral, text, std::string(kXsdInteger)};
    }
    return Status::Ok();
  }

  static bool IsNameChar(char c) {
    return std::isalnum(static_cast<unsigned char>(c)) != 0 || c == '_' ||
           c == '-';
  }

  std::string ReadWord() {
    std::string word;
    while (!cur_.AtEnd() && IsNameChar(cur_.Peek())) word += cur_.Advance();
    return word;
  }

  std::string PeekWord() {
    std::string word;
    std::size_t i = 0;
    while (IsNameChar(cur_.PeekAt(i))) {
      word += cur_.PeekAt(i);
      ++i;
    }
    return word;
  }

  Cursor cur_;
  TripleStore& store_;
  std::map<std::string, std::string> prefixes_;
};

}  // namespace

Status ParseTurtle(std::string_view text, TripleStore& store) {
  return TurtleParser(text, store).Run();
}

void TurtleWriter::AddPrefix(std::string prefix, std::string expansion) {
  prefixes_.emplace_back(std::move(prefix), std::move(expansion));
}

std::string TurtleWriter::RenderIri(const std::string& iri) const {
  if (iri == kRdfType) return "a";
  for (const auto& [prefix, expansion] : prefixes_) {
    if (StartsWith(iri, expansion)) {
      const std::string local = iri.substr(expansion.size());
      // Locals containing characters outside our name set must stay full.
      bool safe = !local.empty();
      for (const char c : local) {
        if (std::isalnum(static_cast<unsigned char>(c)) == 0 && c != '_' &&
            c != '-') {
          safe = false;
          break;
        }
      }
      if (safe) return prefix + ":" + local;
    }
  }
  return "<" + iri + ">";
}

std::string TurtleWriter::RenderTerm(const Term& term) const {
  switch (term.kind) {
    case TermKind::kIri:
      return RenderIri(term.lexical);
    case TermKind::kBlank:
      return "_:" + term.lexical;
    case TermKind::kLiteral: {
      if (term.datatype == kXsdInteger) {
        return term.lexical;  // bare integer form
      }
      if (term.datatype == kXsdDouble) {
        // Bare only when the lexical form re-parses as a double; an
        // integral lexical ("7") must keep its type tag.
        if (term.lexical.find_first_of(".eE") != std::string::npos) {
          return term.lexical;
        }
        return "\"" + term.lexical + "\"^^" + RenderIri(term.datatype);
      }
      std::string out = "\"";
      for (const char c : term.lexical) {
        switch (c) {
          case '"':
            out += "\\\"";
            break;
          case '\\':
            out += "\\\\";
            break;
          case '\n':
            out += "\\n";
            break;
          default:
            out += c;
        }
      }
      out += '"';
      if (!term.datatype.empty() && term.datatype != kXsdString) {
        out += "^^" + RenderIri(term.datatype);
      }
      return out;
    }
  }
  return "?";
}

std::string TurtleWriter::Serialize(const TripleStore& store) const {
  std::ostringstream os;
  for (const auto& [prefix, expansion] : prefixes_) {
    os << "@prefix " << prefix << ": <" << expansion << "> .\n";
  }
  if (!prefixes_.empty()) os << "\n";

  // Group by subject; rely on MatchAll's deterministic subject order.
  const auto triples = store.MatchAll({});
  std::optional<TermId> current_subject;
  bool first_pred = true;
  for (const Triple& t : triples) {
    if (!current_subject || !(*current_subject == t.s)) {
      if (current_subject) os << " .\n";
      current_subject = t.s;
      os << RenderTerm(store.terms().Get(t.s)) << " ";
      first_pred = true;
    }
    if (!first_pred) os << " ;\n    ";
    first_pred = false;
    os << RenderTerm(store.terms().Get(t.p)) << " "
       << RenderTerm(store.terms().Get(t.o));
  }
  if (current_subject) os << " .\n";
  return os.str();
}

}  // namespace scan::kb
