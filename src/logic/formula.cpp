#include "logic/formula.hpp"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <ostream>
#include <sstream>
#include <unordered_set>

namespace wm {

namespace {

std::size_t mix(std::size_t seed, std::size_t v) {
  return seed ^ (v + 0x9e3779b97f4a7c15ULL + (seed << 6) + (seed >> 2));
}

[[noreturn]] void die(const char* what) {
  std::fprintf(stderr, "wm::Formula: %s\n", what);
  std::abort();
}

}  // namespace

std::string Modality::to_string() const {
  auto part = [](int x) { return x == 0 ? std::string("*") : std::to_string(x); };
  std::string s = "(";
  s += part(in);
  s += ',';
  s += part(out);
  s += ')';
  return s;
}

std::string variant_name(Variant v) {
  switch (v) {
    case Variant::PlusPlus: return "K++";
    case Variant::MinusPlus: return "K-+";
    case Variant::PlusMinus: return "K+-";
    case Variant::MinusMinus: return "K--";
  }
  return "?";
}

Formula Formula::make(Node&& n) {
  std::size_t h = static_cast<std::size_t>(n.kind) * 0x100000001b3ULL;
  h = mix(h, static_cast<std::size_t>(n.prop));
  h = mix(h, static_cast<std::size_t>(n.alpha.in * 131 + n.alpha.out));
  h = mix(h, static_cast<std::size_t>(n.grade));
  int depth = 0;
  std::size_t size = 1;
  for (const Formula& k : n.kids) {
    h = mix(h, k.hash());
    depth = std::max(depth, k.modal_depth());
    size += k.size();
  }
  if (n.kind == Kind::Diamond || n.kind == Kind::Box) ++depth;
  n.depth = depth;
  n.size = size;
  n.hash = h;
  return Formula(std::make_shared<const Node>(std::move(n)));
}

Formula::Formula() : Formula(tru()) {}

Formula Formula::tru() {
  static const Formula t = [] {
    Node n;
    n.kind = Kind::True;
    return make(std::move(n));
  }();
  return t;
}

Formula Formula::fls() {
  static const Formula f = [] {
    Node n;
    n.kind = Kind::False;
    return make(std::move(n));
  }();
  return f;
}

Formula Formula::prop(int p) {
  if (p < 1) die("prop index must be >= 1");
  Node n;
  n.kind = Kind::Prop;
  n.prop = p;
  return make(std::move(n));
}

Formula Formula::negate(Formula f) {
  Node n;
  n.kind = Kind::Not;
  n.kids = {std::move(f)};
  return make(std::move(n));
}

Formula Formula::conj(Formula a, Formula b) {
  Node n;
  n.kind = Kind::And;
  n.kids = {std::move(a), std::move(b)};
  return make(std::move(n));
}

Formula Formula::disj(Formula a, Formula b) {
  Node n;
  n.kind = Kind::Or;
  n.kids = {std::move(a), std::move(b)};
  return make(std::move(n));
}

Formula Formula::conj_all(FormulaVec fs) {
  if (fs.empty()) return tru();
  Formula acc = fs[0];
  for (std::size_t i = 1; i < fs.size(); ++i) acc = conj(acc, fs[i]);
  return acc;
}

Formula Formula::disj_all(FormulaVec fs) {
  if (fs.empty()) return fls();
  Formula acc = fs[0];
  for (std::size_t i = 1; i < fs.size(); ++i) acc = disj(acc, fs[i]);
  return acc;
}

Formula Formula::diamond(Modality alpha, Formula f, int grade) {
  if (grade < 1) die("diamond grade must be >= 1");
  Node n;
  n.kind = Kind::Diamond;
  n.alpha = alpha;
  n.grade = grade;
  n.kids = {std::move(f)};
  return make(std::move(n));
}

Formula Formula::box(Modality alpha, Formula f) {
  Node n;
  n.kind = Kind::Box;
  n.alpha = alpha;
  n.kids = {std::move(f)};
  return make(std::move(n));
}

int Formula::prop_id() const {
  if (kind() != Kind::Prop) die("prop_id() on non-Prop");
  return node_->prop;
}

const Formula& Formula::child(std::size_t i) const {
  if (i >= node_->kids.size()) die("child() out of range");
  return node_->kids[i];
}

Modality Formula::modality() const {
  if (kind() != Kind::Diamond && kind() != Kind::Box) die("modality() misuse");
  return node_->alpha;
}

int Formula::grade() const {
  if (kind() != Kind::Diamond) die("grade() on non-Diamond");
  return node_->grade;
}

bool Formula::is_graded() const {
  if (kind() == Kind::Diamond && node_->grade >= 2) return true;
  for (const Formula& k : node_->kids) {
    if (k.is_graded()) return true;
  }
  return false;
}

bool Formula::in_signature(Variant variant, int delta) const {
  if (kind() == Kind::Diamond || kind() == Kind::Box) {
    const Modality a = node_->alpha;
    const bool in_star = a.in == 0, out_star = a.out == 0;
    bool ok = false;
    switch (variant) {
      case Variant::PlusPlus: ok = !in_star && !out_star; break;
      case Variant::MinusPlus: ok = in_star && !out_star; break;
      case Variant::PlusMinus: ok = !in_star && out_star; break;
      case Variant::MinusMinus: ok = in_star && out_star; break;
    }
    if (!ok || a.in > delta || a.out > delta) return false;
  }
  if (kind() == Kind::Prop && node_->prop > delta) return false;
  for (const Formula& k : node_->kids) {
    if (!k.in_signature(variant, delta)) return false;
  }
  return true;
}

int Formula::max_prop() const {
  int m = kind() == Kind::Prop ? node_->prop : 0;
  for (const Formula& k : node_->kids) m = std::max(m, k.max_prop());
  return m;
}

int Formula::max_port() const {
  int m = 0;
  if (kind() == Kind::Diamond || kind() == Kind::Box) {
    m = std::max(node_->alpha.in, node_->alpha.out);
  }
  for (const Formula& k : node_->kids) m = std::max(m, k.max_port());
  return m;
}

bool operator==(const Formula& a, const Formula& b) {
  if (a.node_ == b.node_) return true;
  if (a.hash() != b.hash()) return false;
  return (a <=> b) == std::strong_ordering::equal;
}

std::strong_ordering operator<=>(const Formula& a, const Formula& b) {
  if (a.node_ == b.node_) return std::strong_ordering::equal;
  if (auto c = a.kind() <=> b.kind(); c != 0) return c;
  if (auto c = a.node_->prop <=> b.node_->prop; c != 0) return c;
  if (auto c = a.node_->alpha <=> b.node_->alpha; c != 0) return c;
  if (auto c = a.node_->grade <=> b.node_->grade; c != 0) return c;
  const auto& x = a.node_->kids;
  const auto& y = b.node_->kids;
  if (auto c = x.size() <=> y.size(); c != 0) return c;
  for (std::size_t i = 0; i < x.size(); ++i) {
    if (auto c = x[i] <=> y[i]; c != 0) return c;
  }
  return std::strong_ordering::equal;
}

std::string Formula::to_string() const {
  std::ostringstream os;
  os << *this;
  return os.str();
}

std::ostream& operator<<(std::ostream& os, const Formula& f) {
  switch (f.kind()) {
    case Formula::Kind::True:
      return os << "T";
    case Formula::Kind::False:
      return os << "F";
    case Formula::Kind::Prop:
      return os << 'q' << f.prop_id();
    case Formula::Kind::Not:
      return os << '~' << f.child();
    case Formula::Kind::And:
      return os << '(' << f.child(0) << " & " << f.child(1) << ')';
    case Formula::Kind::Or:
      return os << '(' << f.child(0) << " | " << f.child(1) << ')';
    case Formula::Kind::Diamond: {
      os << '<' << (f.modality().in == 0 ? "*" : std::to_string(f.modality().in))
         << ',' << (f.modality().out == 0 ? "*" : std::to_string(f.modality().out))
         << '>';
      if (f.grade() > 1) os << ">=" << f.grade();
      return os << ' ' << f.child();
    }
    case Formula::Kind::Box:
      return os << '['
                << (f.modality().in == 0 ? "*" : std::to_string(f.modality().in))
                << ','
                << (f.modality().out == 0 ? "*" : std::to_string(f.modality().out))
                << "] " << f.child();
  }
  return os;
}

FormulaVec subformula_closure(const Formula& f) {
  FormulaVec out;
  std::unordered_set<Formula> seen;
  // Post-order DFS so children precede parents.
  std::vector<std::pair<Formula, bool>> stack{{f, false}};
  while (!stack.empty()) {
    auto [cur, expanded] = stack.back();
    stack.pop_back();
    if (seen.contains(cur)) continue;
    if (expanded) {
      seen.insert(cur);
      out.push_back(cur);
      continue;
    }
    stack.push_back({cur, true});
    for (std::size_t i = 0; i < cur.num_children(); ++i) {
      stack.push_back({cur.child(i), false});
    }
  }
  return out;
}

}  // namespace wm
