#include "xml/parser.h"

#include <algorithm>
#include <cctype>
#include <filesystem>
#include <fstream>
#include <sstream>

namespace xksearch {

namespace {

bool IsNameStartChar(char c) {
  return std::isalpha(static_cast<unsigned char>(c)) || c == '_' || c == ':';
}

bool IsNameChar(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) || c == '_' || c == ':' ||
         c == '-' || c == '.';
}

bool IsXmlSpace(char c) {
  return c == ' ' || c == '\t' || c == '\n' || c == '\r';
}

bool IsAllWhitespace(std::string_view s) {
  for (char c : s) {
    if (!IsXmlSpace(c)) return false;
  }
  return true;
}

/// Recursive-descent parser over a string_view with position tracking.
class Parser {
 public:
  Parser(std::string_view input, const ParserOptions& options)
      : in_(input), options_(options) {}

  Result<Document> Parse() {
    SkipBom();
    XKS_RETURN_NOT_OK(SkipProlog());
    if (AtEnd() || Peek() != '<') {
      return Error("expected root element");
    }
    Document doc;
    XKS_RETURN_NOT_OK(ParseElement(&doc, kInvalidNode, /*depth=*/0));
    XKS_RETURN_NOT_OK(SkipMisc());
    if (!AtEnd()) {
      return Error("content after root element");
    }
    doc.ShrinkToFit();
    return doc;
  }

 private:
  bool AtEnd() const { return pos_ >= in_.size(); }
  char Peek() const { return in_[pos_]; }
  char PeekAt(size_t off) const {
    return pos_ + off < in_.size() ? in_[pos_ + off] : '\0';
  }

  void Advance() {
    if (in_[pos_] == '\n') {
      ++line_;
      col_ = 1;
    } else {
      ++col_;
    }
    ++pos_;
  }

  void AdvanceBy(size_t n) {
    for (size_t i = 0; i < n && !AtEnd(); ++i) Advance();
  }

  bool Match(std::string_view token) {
    if (in_.substr(pos_, token.size()) != token) return false;
    AdvanceBy(token.size());
    return true;
  }

  Status Error(const std::string& msg) const {
    std::ostringstream os;
    os << msg << " at " << line_ << ":" << col_;
    return Status::ParseError(os.str());
  }

  void SkipWhitespace() {
    while (!AtEnd() && IsXmlSpace(Peek())) Advance();
  }

  void SkipBom() {
    if (in_.substr(0, 3) == "\xEF\xBB\xBF") AdvanceBy(3);
  }

  Status SkipUntil(std::string_view terminator, const std::string& what) {
    while (!AtEnd()) {
      if (in_.substr(pos_, terminator.size()) == terminator) {
        AdvanceBy(terminator.size());
        return Status::OK();
      }
      Advance();
    }
    return Error("unterminated " + what);
  }

  Status SkipComment() {
    // Caller consumed "<!--".
    return SkipUntil("-->", "comment");
  }

  Status SkipProcessingInstruction() {
    // Caller consumed "<?".
    return SkipUntil("?>", "processing instruction");
  }

  Status SkipDoctype() {
    // Caller consumed "<!DOCTYPE". May contain an internal subset in [...].
    int bracket_depth = 0;
    while (!AtEnd()) {
      const char c = Peek();
      if (c == '[') {
        ++bracket_depth;
      } else if (c == ']') {
        --bracket_depth;
      } else if (c == '>' && bracket_depth == 0) {
        Advance();
        return Status::OK();
      }
      Advance();
    }
    return Error("unterminated DOCTYPE");
  }

  /// Whitespace / comments / PIs / DOCTYPE before or after the root.
  Status SkipMisc() {
    for (;;) {
      SkipWhitespace();
      if (Match("<!--")) {
        XKS_RETURN_NOT_OK(SkipComment());
      } else if (in_.substr(pos_, 2) == "<?") {
        AdvanceBy(2);
        XKS_RETURN_NOT_OK(SkipProcessingInstruction());
      } else {
        return Status::OK();
      }
    }
  }

  Status SkipProlog() {
    XKS_RETURN_NOT_OK(SkipMisc());
    if (Match("<!DOCTYPE")) {
      XKS_RETURN_NOT_OK(SkipDoctype());
      XKS_RETURN_NOT_OK(SkipMisc());
    }
    return Status::OK();
  }

  Result<std::string_view> ParseName() {
    if (AtEnd() || !IsNameStartChar(Peek())) {
      return Error("expected name");
    }
    const size_t start = pos_;
    while (!AtEnd() && IsNameChar(Peek())) Advance();
    return in_.substr(start, pos_ - start);
  }

  /// Decodes one entity reference; caller consumed '&'.
  Status AppendEntity(std::string* out) {
    if (Match("amp;")) {
      *out += '&';
    } else if (Match("lt;")) {
      *out += '<';
    } else if (Match("gt;")) {
      *out += '>';
    } else if (Match("quot;")) {
      *out += '"';
    } else if (Match("apos;")) {
      *out += '\'';
    } else if (Match("#")) {
      uint32_t code = 0;
      const bool hex = Match("x") || Match("X");
      bool any = false;
      while (!AtEnd() && Peek() != ';') {
        const char c = Peek();
        uint32_t digit;
        if (c >= '0' && c <= '9') {
          digit = static_cast<uint32_t>(c - '0');
        } else if (hex && c >= 'a' && c <= 'f') {
          digit = static_cast<uint32_t>(c - 'a' + 10);
        } else if (hex && c >= 'A' && c <= 'F') {
          digit = static_cast<uint32_t>(c - 'A' + 10);
        } else {
          return Error("bad character reference");
        }
        code = code * (hex ? 16 : 10) + digit;
        if (code > 0x10FFFF) return Error("character reference out of range");
        any = true;
        Advance();
      }
      if (!any || !Match(";")) return Error("unterminated character reference");
      AppendUtf8(code, out);
    } else {
      return Error("unknown entity reference");
    }
    return Status::OK();
  }

  static void AppendUtf8(uint32_t cp, std::string* out) {
    if (cp < 0x80) {
      *out += static_cast<char>(cp);
    } else if (cp < 0x800) {
      *out += static_cast<char>(0xC0 | (cp >> 6));
      *out += static_cast<char>(0x80 | (cp & 0x3F));
    } else if (cp < 0x10000) {
      *out += static_cast<char>(0xE0 | (cp >> 12));
      *out += static_cast<char>(0x80 | ((cp >> 6) & 0x3F));
      *out += static_cast<char>(0x80 | (cp & 0x3F));
    } else {
      *out += static_cast<char>(0xF0 | (cp >> 18));
      *out += static_cast<char>(0x80 | ((cp >> 12) & 0x3F));
      *out += static_cast<char>(0x80 | ((cp >> 6) & 0x3F));
      *out += static_cast<char>(0x80 | (cp & 0x3F));
    }
  }

  Result<std::string> ParseAttributeValue() {
    if (AtEnd() || (Peek() != '"' && Peek() != '\'')) {
      return Error("expected quoted attribute value");
    }
    const char quote = Peek();
    Advance();
    std::string value;
    while (!AtEnd() && Peek() != quote) {
      if (Peek() == '<') {
        return Error("'<' in attribute value");
      }
      if (Peek() == '&') {
        Advance();
        Status st = AppendEntity(&value);
        if (!st.ok()) return st;
      } else {
        value += Peek();
        Advance();
      }
    }
    if (AtEnd()) {
      return Error("unterminated attribute value");
    }
    Advance();  // closing quote
    return value;
  }

  Status ParseElement(Document* doc, NodeId parent, uint32_t depth) {
    if (depth > options_.max_depth) {
      return Error("document nested deeper than max_depth");
    }
    // Caller guarantees Peek() == '<'.
    Advance();
    XKS_ASSIGN_OR_RETURN(std::string_view tag, ParseName());

    const NodeId self = parent == kInvalidNode ? doc->CreateRoot(tag)
                                               : doc->AppendElement(parent, tag);

    // Attributes.
    for (;;) {
      SkipWhitespace();
      if (AtEnd()) return Error("unterminated start tag");
      if (Peek() == '>' || Peek() == '/') break;
      XKS_ASSIGN_OR_RETURN(std::string_view attr_name, ParseName());
      SkipWhitespace();
      if (!Match("=")) return Error("expected '=' after attribute name");
      SkipWhitespace();
      XKS_ASSIGN_OR_RETURN(std::string attr_value, ParseAttributeValue());
      doc->AddAttribute(self, attr_name, attr_value);
    }

    if (Match("/>")) return Status::OK();
    if (!Match(">")) return Error("expected '>' to close start tag");

    // Content.
    std::string text;
    auto flush_text = [&]() {
      if (text.empty()) return;
      if (options_.keep_whitespace_text || !IsAllWhitespace(text)) {
        doc->AppendText(self, text);
      }
      text.clear();
    };

    for (;;) {
      if (AtEnd()) return Error("unterminated element <" + std::string(tag) + ">");
      const char c = Peek();
      if (c == '<') {
        if (Match("<![CDATA[")) {
          const size_t start = pos_;
          while (!AtEnd() && in_.substr(pos_, 3) != "]]>") Advance();
          if (AtEnd()) return Error("unterminated CDATA section");
          text.append(in_.substr(start, pos_ - start));
          AdvanceBy(3);
        } else if (Match("<!--")) {
          XKS_RETURN_NOT_OK(SkipComment());
        } else if (in_.substr(pos_, 2) == "<?") {
          AdvanceBy(2);
          XKS_RETURN_NOT_OK(SkipProcessingInstruction());
        } else if (PeekAt(1) == '/') {
          flush_text();
          AdvanceBy(2);
          XKS_ASSIGN_OR_RETURN(std::string_view end_tag, ParseName());
          if (end_tag != tag) {
            return Error("mismatched end tag </" + std::string(end_tag) +
                         ">, expected </" + std::string(tag) + ">");
          }
          SkipWhitespace();
          if (!Match(">")) return Error("expected '>' in end tag");
          return Status::OK();
        } else {
          flush_text();
          XKS_RETURN_NOT_OK(ParseElement(doc, self, depth + 1));
        }
      } else if (c == '&') {
        Advance();
        XKS_RETURN_NOT_OK(AppendEntity(&text));
      } else {
        text += c;
        Advance();
      }
    }
  }

  std::string_view in_;
  ParserOptions options_;
  size_t pos_ = 0;
  size_t line_ = 1;
  size_t col_ = 1;
};

void SerializeNode(const Document& doc, NodeId n, bool indent, int depth,
                   std::string* out) {
  if (doc.IsText(n)) {
    *out += EscapeXml(doc.text(n));
    return;
  }
  if (indent) {
    out->append(static_cast<size_t>(depth) * 2, ' ');
  }
  *out += '<';
  *out += doc.tag(n);
  for (const auto& [name, value] : doc.attributes(n)) {
    *out += ' ';
    *out += name;
    *out += "=\"";
    *out += EscapeXml(value);
    *out += '"';
  }
  const Document::ChildRange kids = doc.children(n);
  if (kids.empty()) {
    *out += "/>";
    if (indent) *out += '\n';
    return;
  }
  *out += '>';
  const bool element_only =
      indent && std::all_of(kids.begin(), kids.end(),
                            [&](NodeId k) { return doc.IsElement(k); });
  if (element_only) *out += '\n';
  for (NodeId k : kids) {
    SerializeNode(doc, k, element_only, depth + 1, out);
  }
  if (element_only) {
    out->append(static_cast<size_t>(depth) * 2, ' ');
  }
  *out += "</";
  *out += doc.tag(n);
  *out += '>';
  if (indent) *out += '\n';
}

}  // namespace

Result<Document> ParseXml(std::string_view input, const ParserOptions& options) {
  Parser parser(input, options);
  return parser.Parse();
}

Result<Document> ParseXmlFile(const std::string& path,
                              const ParserOptions& options) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    return Status::IoError("cannot open " + path);
  }
  // One buffer, sized from the file: the text is held once while parsed.
  std::error_code error;
  const uintmax_t size = std::filesystem::file_size(path, error);
  if (error) {
    return Status::IoError("cannot size " + path + ": " + error.message());
  }
  std::string content(static_cast<size_t>(size), '\0');
  if (!in.read(content.data(), static_cast<std::streamsize>(size))) {
    return Status::IoError("error reading " + path);
  }
  return ParseXml(content, options);
}

std::string SerializeXml(const Document& doc, bool indent) {
  std::string out;
  if (doc.empty()) return out;
  SerializeNode(doc, doc.root(), indent, 0, &out);
  return out;
}

std::string EscapeXml(std::string_view text) {
  std::string out;
  out.reserve(text.size());
  for (char c : text) {
    switch (c) {
      case '&':
        out += "&amp;";
        break;
      case '<':
        out += "&lt;";
        break;
      case '>':
        out += "&gt;";
        break;
      case '"':
        out += "&quot;";
        break;
      case '\'':
        out += "&apos;";
        break;
      default:
        out += c;
    }
  }
  return out;
}

}  // namespace xksearch
