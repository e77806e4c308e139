#include "serve/json.hpp"

#include <cctype>
#include <charconv>
#include <cmath>

#include "obs/json_escape.hpp"

namespace wm::serve {

const Json* Json::find(std::string_view key) const {
  if (kind_ != Kind::Object) return nullptr;
  for (const auto& [k, v] : members_) {
    if (k == key) return &v;
  }
  return nullptr;
}

Json Json::null() { return Json(); }

Json Json::boolean(bool b) {
  Json j;
  j.kind_ = Kind::Bool;
  j.bool_ = b;
  return j;
}

Json Json::integer(long long i) {
  Json j;
  j.kind_ = Kind::Int;
  j.int_ = i;
  return j;
}

Json Json::number(double d) {
  Json j;
  j.kind_ = Kind::Double;
  j.double_ = d;
  return j;
}

Json Json::string(std::string s) {
  Json j;
  j.kind_ = Kind::String;
  j.string_ = std::move(s);
  return j;
}

Json Json::array(std::vector<Json> items) {
  Json j;
  j.kind_ = Kind::Array;
  j.items_ = std::move(items);
  return j;
}

Json Json::object(std::vector<std::pair<std::string, Json>> members) {
  Json j;
  j.kind_ = Kind::Object;
  j.members_ = std::move(members);
  return j;
}

namespace {

class Parser {
 public:
  Parser(std::string_view text, int max_depth)
      : text_(text), max_depth_(max_depth) {}

  Json parse() {
    skip_ws();
    Json v = value(0);
    skip_ws();
    if (pos_ != text_.size()) fail("trailing characters after value");
    return v;
  }

 private:
  [[noreturn]] void fail(const std::string& what) const {
    throw JsonError("json: " + what + " at offset " + std::to_string(pos_));
  }

  void skip_ws() {
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if (c != ' ' && c != '\t' && c != '\n' && c != '\r') break;
      ++pos_;
    }
  }

  char peek() const {
    if (pos_ >= text_.size()) {
      throw JsonError("json: unexpected end of input at offset " +
                      std::to_string(pos_));
    }
    return text_[pos_];
  }

  void expect(char c) {
    if (peek() != c) fail(std::string("expected '") + c + "'");
    ++pos_;
  }

  bool consume_literal(std::string_view lit) {
    if (text_.substr(pos_, lit.size()) != lit) return false;
    pos_ += lit.size();
    return true;
  }

  Json value(int depth) {
    if (depth > max_depth_) fail("nesting too deep");
    switch (peek()) {
      case '{':
        return object(depth);
      case '[':
        return array(depth);
      case '"':
        return Json::string(string());
      case 't':
        if (consume_literal("true")) return Json::boolean(true);
        fail("invalid literal");
      case 'f':
        if (consume_literal("false")) return Json::boolean(false);
        fail("invalid literal");
      case 'n':
        if (consume_literal("null")) return Json::null();
        fail("invalid literal");
      default:
        return number();
    }
  }

  Json object(int depth) {
    expect('{');
    std::vector<std::pair<std::string, Json>> members;
    skip_ws();
    if (peek() == '}') {
      ++pos_;
      return Json::object(std::move(members));
    }
    for (;;) {
      skip_ws();
      if (peek() != '"') fail("expected object key");
      std::string key = string();
      skip_ws();
      expect(':');
      skip_ws();
      members.emplace_back(std::move(key), value(depth + 1));
      skip_ws();
      const char c = peek();
      ++pos_;
      if (c == '}') return Json::object(std::move(members));
      if (c != ',') fail("expected ',' or '}'");
    }
  }

  Json array(int depth) {
    expect('[');
    std::vector<Json> items;
    skip_ws();
    if (peek() == ']') {
      ++pos_;
      return Json::array(std::move(items));
    }
    for (;;) {
      skip_ws();
      items.push_back(value(depth + 1));
      skip_ws();
      const char c = peek();
      ++pos_;
      if (c == ']') return Json::array(std::move(items));
      if (c != ',') fail("expected ',' or ']'");
    }
  }

  int hex4() {
    int code = 0;
    for (int i = 0; i < 4; ++i) {
      const char c = peek();
      ++pos_;
      code <<= 4;
      if (c >= '0' && c <= '9') {
        code |= c - '0';
      } else if (c >= 'a' && c <= 'f') {
        code |= c - 'a' + 10;
      } else if (c >= 'A' && c <= 'F') {
        code |= c - 'A' + 10;
      } else {
        fail("invalid \\u escape");
      }
    }
    return code;
  }

  static void append_utf8(std::string& out, unsigned code) {
    if (code < 0x80) {
      out += static_cast<char>(code);
    } else if (code < 0x800) {
      out += static_cast<char>(0xC0 | (code >> 6));
      out += static_cast<char>(0x80 | (code & 0x3F));
    } else if (code < 0x10000) {
      out += static_cast<char>(0xE0 | (code >> 12));
      out += static_cast<char>(0x80 | ((code >> 6) & 0x3F));
      out += static_cast<char>(0x80 | (code & 0x3F));
    } else {
      out += static_cast<char>(0xF0 | (code >> 18));
      out += static_cast<char>(0x80 | ((code >> 12) & 0x3F));
      out += static_cast<char>(0x80 | ((code >> 6) & 0x3F));
      out += static_cast<char>(0x80 | (code & 0x3F));
    }
  }

  std::string string() {
    expect('"');
    std::string out;
    for (;;) {
      if (pos_ >= text_.size()) fail("unterminated string");
      const char c = text_[pos_];
      ++pos_;
      if (c == '"') return out;
      if (static_cast<unsigned char>(c) < 0x20) {
        fail("raw control character in string");
      }
      if (c != '\\') {
        out += c;
        continue;
      }
      const char esc = peek();
      ++pos_;
      switch (esc) {
        case '"': out += '"'; break;
        case '\\': out += '\\'; break;
        case '/': out += '/'; break;
        case 'b': out += '\b'; break;
        case 'f': out += '\f'; break;
        case 'n': out += '\n'; break;
        case 'r': out += '\r'; break;
        case 't': out += '\t'; break;
        case 'u': {
          unsigned code = static_cast<unsigned>(hex4());
          if (code >= 0xD800 && code <= 0xDBFF) {
            // High surrogate: require a low surrogate \uXXXX next.
            if (!consume_literal("\\u")) fail("unpaired surrogate");
            const unsigned lo = static_cast<unsigned>(hex4());
            if (lo < 0xDC00 || lo > 0xDFFF) fail("unpaired surrogate");
            code = 0x10000 + ((code - 0xD800) << 10) + (lo - 0xDC00);
          } else if (code >= 0xDC00 && code <= 0xDFFF) {
            fail("unpaired surrogate");
          }
          append_utf8(out, code);
          break;
        }
        default:
          fail("invalid escape");
      }
    }
  }

  Json number() {
    const std::size_t start = pos_;
    if (pos_ < text_.size() && text_[pos_] == '-') ++pos_;
    bool integral = true;
    auto digits = [&] {
      std::size_t before = pos_;
      while (pos_ < text_.size() && text_[pos_] >= '0' && text_[pos_] <= '9') {
        ++pos_;
      }
      return pos_ > before;
    };
    if (!digits()) fail("invalid number");
    if (pos_ < text_.size() && text_[pos_] == '.') {
      integral = false;
      ++pos_;
      if (!digits()) fail("invalid number");
    }
    if (pos_ < text_.size() && (text_[pos_] == 'e' || text_[pos_] == 'E')) {
      integral = false;
      ++pos_;
      if (pos_ < text_.size() && (text_[pos_] == '+' || text_[pos_] == '-')) {
        ++pos_;
      }
      if (!digits()) fail("invalid number");
    }
    const std::string_view tok = text_.substr(start, pos_ - start);
    if (integral) {
      long long v = 0;
      const auto [p, ec] =
          std::from_chars(tok.data(), tok.data() + tok.size(), v);
      if (ec == std::errc() && p == tok.data() + tok.size()) {
        return Json::integer(v);
      }
      // Out-of-range integer literal: fall through to double.
    }
    double d = 0;
    const auto [p, ec] = std::from_chars(tok.data(), tok.data() + tok.size(), d);
    if (ec != std::errc() || p != tok.data() + tok.size() || !std::isfinite(d)) {
      fail("invalid number");
    }
    return Json::number(d);
  }

  std::string_view text_;
  std::size_t pos_ = 0;
  const int max_depth_;
};

}  // namespace

Json parse_json(std::string_view text, int max_depth) {
  return Parser(text, max_depth).parse();
}

void append_json_quoted(std::string& out, std::string_view text) {
  out += '"';
  obs::append_json_escaped(out, text);
  out += '"';
}

std::string json_quoted(std::string_view text) {
  std::string out;
  append_json_quoted(out, text);
  return out;
}

}  // namespace wm::serve
