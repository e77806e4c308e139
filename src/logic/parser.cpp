#include "logic/parser.hpp"

#include <algorithm>
#include <cctype>

namespace wm {

namespace {

// Each rule returns the formula with its tree height: one level per `~`
// or modality, and one per `&`/`|` link, since a chain builds a
// left-deep tree. `depth_` counts the `~`, modalities and parentheses
// open around the current position. Keeping depth_ + height within
// kMaxFormulaHeight bounds both the recursion here and the height of
// the tree returned.
struct Parsed {
  Formula f;
  int height = 0;
};

class Parser {
 public:
  explicit Parser(const std::string& text) : s_(text) {}

  Formula parse() {
    Parsed p = disj();
    skip_ws();
    if (pos_ != s_.size()) fail("trailing input");
    return std::move(p.f);
  }

 private:
  Parsed disj() {
    Parsed p = conj();
    for (;;) {
      skip_ws();
      if (!eat('|')) return p;
      const Parsed rhs = conj();
      p = {Formula::disj(p.f, rhs.f), link(p, rhs)};
    }
  }

  Parsed conj() {
    Parsed p = unary();
    for (;;) {
      skip_ws();
      if (!eat('&')) return p;
      const Parsed rhs = unary();
      p = {Formula::conj(p.f, rhs.f), link(p, rhs)};
    }
  }

  Parsed unary() {
    skip_ws();
    if (eat('~')) {
      const Parsed c = nested([this] { return unary(); });
      return {Formula::negate(c.f), c.height + 1};
    }
    if (eat('<')) {
      const Modality alpha = modality();
      expect('>');
      int grade = 1;
      skip_ws();
      if (peek() == '>' && pos_ + 1 < s_.size() && s_[pos_ + 1] == '=') {
        pos_ += 2;
        grade = integer();
      }
      const Parsed c = nested([this] { return unary(); });
      return {Formula::diamond(alpha, c.f, grade), c.height + 1};
    }
    if (eat('[')) {
      const Modality alpha = modality();
      expect(']');
      const Parsed c = nested([this] { return unary(); });
      return {Formula::box(alpha, c.f), c.height + 1};
    }
    return atom();
  }

  Parsed atom() {
    skip_ws();
    if (eat('(')) {
      const Parsed inner = nested([this] { return disj(); });
      expect(')');
      return inner;
    }
    if (eat('T')) return {Formula::tru()};
    if (eat('F')) return {Formula::fls()};
    if (eat('q')) return {Formula::prop(integer())};
    fail("expected atom");
  }

  /// Parses one level further down, refusing before it recurses past
  /// kMaxFormulaHeight.
  template <typename Rule>
  Parsed nested(Rule rule) {
    if (depth_ + 1 > kMaxFormulaHeight) fail("formula nested too deeply");
    ++depth_;
    Parsed p = rule();
    --depth_;
    return p;
  }

  /// Height of a chain link over `lhs` and `rhs`, refused past the bound.
  int link(const Parsed& lhs, const Parsed& rhs) const {
    const int height = std::max(lhs.height, rhs.height) + 1;
    if (depth_ + height > kMaxFormulaHeight) fail("formula nested too deeply");
    return height;
  }

  Modality modality() {
    Modality a;
    a.in = modality_part();
    expect(',');
    a.out = modality_part();
    return a;
  }

  int modality_part() {
    skip_ws();
    if (eat('*')) return 0;
    return integer();
  }

  int integer() {
    skip_ws();
    if (pos_ >= s_.size() || !std::isdigit(static_cast<unsigned char>(s_[pos_]))) {
      fail("expected integer");
    }
    int v = 0;
    while (pos_ < s_.size() && std::isdigit(static_cast<unsigned char>(s_[pos_]))) {
      v = v * 10 + (s_[pos_++] - '0');
      if (v > 1000000) fail("integer too large");
    }
    return v;
  }

  void skip_ws() {
    while (pos_ < s_.size() && std::isspace(static_cast<unsigned char>(s_[pos_]))) {
      ++pos_;
    }
  }

  char peek() const { return pos_ < s_.size() ? s_[pos_] : '\0'; }

  bool eat(char c) {
    skip_ws();
    if (pos_ < s_.size() && s_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }

  void expect(char c) {
    if (!eat(c)) fail((std::string("expected '") + c + "'").c_str());
  }

  [[noreturn]] void fail(const char* what) const {
    // Quote at most 64 bytes: a hostile line need not come back whole.
    constexpr std::size_t kQuoted = 64;
    const std::string quoted =
        s_.size() <= kQuoted ? s_ : s_.substr(0, kQuoted) + "...";
    throw ParseError(std::string("parse error at offset ") +
                     std::to_string(pos_) + ": " + what + " in \"" + quoted +
                     "\"");
  }

  const std::string& s_;
  std::size_t pos_ = 0;
  int depth_ = 0;
};

}  // namespace

Formula parse_formula(const std::string& text) { return Parser(text).parse(); }

}  // namespace wm
