// Modal logic formulas: ML, GML, MML and GMML in one AST (Section 4.1).
//
// A modality alpha is a pair (i, j) of port numbers where either component
// may be '*' (encoded 0): the accessibility relation R_(i,j) of the Kripke
// models K_{a,b}(G, p) (Section 4.3, Figure 7). Grades k >= 1 give graded
// diamonds <alpha>_{>=k}; grade 1 is the plain diamond.
//
// Formulas are immutable and cheaply shareable; structural equality and
// hashing make subformula memoisation cheap in the model checker and the
// Theorem 2 compiler.
#pragma once

#include <algorithm>
#include <compare>
#include <cstdint>
#include <limits>
#include <memory>
#include <string>
#include <vector>

namespace wm {

/// Modality index alpha; 0 means '*'. The four signatures I^Delta_{a,b} of
/// the paper are: (+,+) i,j in [Delta]; (-,+) i = *, j in [Delta];
/// (+,-) i in [Delta], j = *; (-,-) i = j = *.
struct Modality {
  int in = 0;   // i: receiver-side port, 0 = '*'
  int out = 0;  // j: sender-side port, 0 = '*'
  friend bool operator==(const Modality&, const Modality&) = default;
  friend auto operator<=>(const Modality&, const Modality&) = default;
  std::string to_string() const;
};

/// Which Kripke view / modality signature a formula lives in (Section 4.3).
enum class Variant {
  PlusPlus,    // K_{+,+}: modalities (i,j) — classes VVc(1), VV(1)
  MinusPlus,   // K_{-,+}: modalities (*,j) — classes MV(1), SV(1)
  PlusMinus,   // K_{+,-}: modalities (i,*) — class VB(1)
  MinusMinus,  // K_{-,-}: modalities (*,*) — classes MB(1), SB(1)
};

std::string variant_name(Variant v);

class Formula;
using FormulaVec = std::vector<Formula>;

class Formula {
 public:
  enum class Kind : std::uint8_t { True, False, Prop, Not, And, Or, Diamond, Box };

  /// Default is the constant True.
  Formula();

  static Formula tru();
  static Formula fls();
  /// Proposition q_p, p >= 1 (the paper's degree propositions Phi_Delta).
  static Formula prop(int p);
  static Formula negate(Formula f);
  static Formula conj(Formula a, Formula b);
  static Formula disj(Formula a, Formula b);
  /// Conjunction over a list; empty list = True.
  static Formula conj_all(FormulaVec fs);
  /// Disjunction over a list; empty list = False.
  static Formula disj_all(FormulaVec fs);
  /// <alpha>_{>=grade} f. Precondition: grade >= 1.
  static Formula diamond(Modality alpha, Formula f, int grade = 1);
  /// [alpha] f == ~<alpha>~f (kept as a node for readability).
  static Formula box(Modality alpha, Formula f);

  Kind kind() const { return node_->kind; }
  /// Precondition: kind() == Prop.
  int prop_id() const;
  /// Children: Not/Box/Diamond have one, And/Or have two.
  const Formula& child(std::size_t i = 0) const;
  std::size_t num_children() const { return node_->kids.size(); }
  /// Precondition: Diamond or Box.
  Modality modality() const;
  /// Precondition: Diamond. Grade k of <alpha>_{>=k}.
  int grade() const;

  /// md(phi) — number of nested modalities (Section 4.1). Equals the
  /// running time of the compiled algorithm minus one (Theorem 2).
  int modal_depth() const { return node_->depth; }
  /// Number of AST nodes.
  std::size_t size() const { return node_->size; }

  /// True if some diamond has grade >= 2 — i.e. the formula needs a
  /// graded logic (GML / GMML) rather than ML / MML.
  bool is_graded() const { return node_->graded; }

  /// True if every modality fits the signature I^Delta_{a,b}: components
  /// are '*' exactly where the variant demands and port numbers <= delta.
  bool in_signature(Variant variant, int delta) const;

  /// Largest proposition index used (0 if none).
  int max_prop() const { return node_->max_prop; }
  /// Largest port number mentioned in any modality (0 if none).
  int max_port() const { return std::max(0, node_->port_hi); }

  std::string to_string() const;

  std::size_t hash() const { return node_->hash; }
  friend bool operator==(const Formula& a, const Formula& b);
  friend std::strong_ordering operator<=>(const Formula& a, const Formula& b);

 private:
  struct Node {
    Kind kind = Kind::True;
    int prop = 0;
    Modality alpha;
    int grade = 1;
    std::vector<Formula> kids;
    int depth = 0;
    std::size_t size = 1;
    std::size_t hash = 0;
    // Attributes of the whole subformula, set once by make() from the
    // node and its kids, so the reads above are O(1) on any DAG.
    bool graded = false;
    int max_prop = 0;
    int port_hi = std::numeric_limits<int>::min();  // largest modality port
    std::uint8_t shapes = 0;  // bit v: some modality has Variant v's shape
  };
  explicit Formula(std::shared_ptr<const Node> n) : node_(std::move(n)) {}
  static Formula make(Node&& n);

  std::shared_ptr<const Node> node_;
};

std::ostream& operator<<(std::ostream& os, const Formula& f);

/// All distinct subformulas of f (including f), no particular order
/// guarantee beyond: children precede parents.
FormulaVec subformula_closure(const Formula& f);

}  // namespace wm

template <>
struct std::hash<wm::Formula> {
  std::size_t operator()(const wm::Formula& f) const noexcept { return f.hash(); }
};
