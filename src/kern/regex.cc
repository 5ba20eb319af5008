#include "kern/regex.h"

#include <algorithm>
#include <map>
#include <memory>

namespace dpdpu::kern {

namespace {

// ---------------------------------------------------------------------------
// AST.
// ---------------------------------------------------------------------------

struct Node;
using NodePtr = std::unique_ptr<Node>;

enum class NodeKind {
  kClass,       // single character class
  kConcat,      // left then right
  kAlternate,   // left | right
  kStar,        // left*  (greedy)
  kPlus,        // left+
  kQuestion,    // left?
  kEmpty,       // matches empty string
  kAssertBegin, // ^
  kAssertEnd,   // $
};

struct Node {
  NodeKind kind;
  std::bitset<256> char_class;
  NodePtr left;
  NodePtr right;

  NodePtr Clone() const {
    auto n = std::make_unique<Node>();
    n->kind = kind;
    n->char_class = char_class;
    if (left) n->left = left->Clone();
    if (right) n->right = right->Clone();
    return n;
  }
};

NodePtr MakeNode(NodeKind kind) {
  auto n = std::make_unique<Node>();
  n->kind = kind;
  return n;
}

NodePtr MakeClass(std::bitset<256> cls) {
  auto n = MakeNode(NodeKind::kClass);
  n->char_class = cls;
  return n;
}

NodePtr MakeBinary(NodeKind kind, NodePtr l, NodePtr r) {
  auto n = MakeNode(kind);
  n->left = std::move(l);
  n->right = std::move(r);
  return n;
}

NodePtr MakeUnary(NodeKind kind, NodePtr l) {
  auto n = MakeNode(kind);
  n->left = std::move(l);
  return n;
}

// ---------------------------------------------------------------------------
// Parser (recursive descent).
// ---------------------------------------------------------------------------

class Parser {
 public:
  explicit Parser(std::string_view pattern) : p_(pattern) {}

  Result<NodePtr> Parse() {
    DPDPU_ASSIGN_OR_RETURN(NodePtr node, ParseAlternate());
    if (!AtEnd()) {
      return Status::InvalidArgument("regex: unexpected ')' or trailing input");
    }
    return node;
  }

 private:
  bool AtEnd() const { return pos_ >= p_.size(); }
  char Peek() const { return p_[pos_]; }
  char Take() { return p_[pos_++]; }

  Result<NodePtr> ParseAlternate() {
    DPDPU_ASSIGN_OR_RETURN(NodePtr left, ParseConcat());
    while (!AtEnd() && Peek() == '|') {
      Take();
      DPDPU_ASSIGN_OR_RETURN(NodePtr right, ParseConcat());
      left = MakeBinary(NodeKind::kAlternate, std::move(left),
                        std::move(right));
    }
    return left;
  }

  Result<NodePtr> ParseConcat() {
    NodePtr node;
    while (!AtEnd() && Peek() != '|' && Peek() != ')') {
      DPDPU_ASSIGN_OR_RETURN(NodePtr atom, ParseRepeat());
      node = node ? MakeBinary(NodeKind::kConcat, std::move(node),
                               std::move(atom))
                  : std::move(atom);
    }
    if (!node) node = MakeNode(NodeKind::kEmpty);
    return node;
  }

  Result<NodePtr> ParseRepeat() {
    DPDPU_ASSIGN_OR_RETURN(NodePtr atom, ParseAtom());
    while (!AtEnd()) {
      char c = Peek();
      if (c == '*') {
        Take();
        atom = MakeUnary(NodeKind::kStar, std::move(atom));
      } else if (c == '+') {
        Take();
        atom = MakeUnary(NodeKind::kPlus, std::move(atom));
      } else if (c == '?') {
        Take();
        atom = MakeUnary(NodeKind::kQuestion, std::move(atom));
      } else if (c == '{') {
        DPDPU_ASSIGN_OR_RETURN(atom, ParseBrace(std::move(atom)));
      } else {
        break;
      }
    }
    return atom;
  }

  // {m}, {m,}, {m,n} with m,n <= 100 (expansion-based compilation).
  Result<NodePtr> ParseBrace(NodePtr atom) {
    Take();  // '{'
    int m = 0;
    bool have_digit = false;
    while (!AtEnd() && Peek() >= '0' && Peek() <= '9') {
      m = m * 10 + (Take() - '0');
      have_digit = true;
      if (m > 100) return Status::InvalidArgument("regex: {m,n} too large");
    }
    if (!have_digit) return Status::InvalidArgument("regex: bad {} count");
    int n = m;
    bool unbounded = false;
    if (!AtEnd() && Peek() == ',') {
      Take();
      if (!AtEnd() && Peek() == '}') {
        unbounded = true;
      } else {
        n = 0;
        while (!AtEnd() && Peek() >= '0' && Peek() <= '9') {
          n = n * 10 + (Take() - '0');
          if (n > 100) return Status::InvalidArgument("regex: {m,n} too large");
        }
        if (n < m) return Status::InvalidArgument("regex: {m,n} with n < m");
      }
    }
    if (AtEnd() || Take() != '}') {
      return Status::InvalidArgument("regex: unterminated {}");
    }
    // Expand: m mandatory copies, then (n - m) optional or a star.
    NodePtr out;
    for (int i = 0; i < m; ++i) {
      NodePtr copy = atom->Clone();
      out = out ? MakeBinary(NodeKind::kConcat, std::move(out),
                             std::move(copy))
                : std::move(copy);
    }
    if (unbounded) {
      NodePtr star = MakeUnary(NodeKind::kStar, atom->Clone());
      out = out ? MakeBinary(NodeKind::kConcat, std::move(out),
                             std::move(star))
                : std::move(star);
    } else {
      for (int i = m; i < n; ++i) {
        NodePtr opt = MakeUnary(NodeKind::kQuestion, atom->Clone());
        out = out ? MakeBinary(NodeKind::kConcat, std::move(out),
                               std::move(opt))
                  : std::move(opt);
      }
    }
    if (!out) out = MakeNode(NodeKind::kEmpty);  // {0}
    return out;
  }

  Result<NodePtr> ParseAtom() {
    char c = Take();
    switch (c) {
      case '(': {
        DPDPU_ASSIGN_OR_RETURN(NodePtr inner, ParseAlternate());
        if (AtEnd() || Take() != ')') {
          return Status::InvalidArgument("regex: unbalanced parenthesis");
        }
        return inner;
      }
      case '[':
        return ParseClass();
      case '.': {
        std::bitset<256> any;
        any.set();
        any.reset('\n');
        return MakeClass(any);
      }
      case '^':
        return MakeNode(NodeKind::kAssertBegin);
      case '$':
        return MakeNode(NodeKind::kAssertEnd);
      case '\\':
        return ParseEscape();
      case '*':
      case '+':
      case '?':
        return Status::InvalidArgument("regex: quantifier with no operand");
      case ')':
        return Status::InvalidArgument("regex: unmatched ')'");
      default: {
        std::bitset<256> cls;
        cls.set(static_cast<uint8_t>(c));
        return MakeClass(cls);
      }
    }
  }

  static void SetRange(std::bitset<256>& cls, uint8_t lo, uint8_t hi) {
    for (int c = lo; c <= hi; ++c) cls.set(c);
  }

  static bool EscapeClass(char c, std::bitset<256>& cls) {
    switch (c) {
      case 'd':
        SetRange(cls, '0', '9');
        return true;
      case 'w':
        SetRange(cls, 'a', 'z');
        SetRange(cls, 'A', 'Z');
        SetRange(cls, '0', '9');
        cls.set('_');
        return true;
      case 's':
        cls.set(' ');
        cls.set('\t');
        cls.set('\n');
        cls.set('\r');
        cls.set('\f');
        cls.set('\v');
        return true;
      default:
        return false;
    }
  }

  Result<NodePtr> ParseEscape() {
    if (AtEnd()) return Status::InvalidArgument("regex: trailing backslash");
    char c = Take();
    std::bitset<256> cls;
    if (EscapeClass(c, cls)) return MakeClass(cls);
    if (c == 'D' || c == 'W' || c == 'S') {
      std::bitset<256> inner;
      EscapeClass(static_cast<char>(c - 'A' + 'a'), inner);
      return MakeClass(~inner);
    }
    switch (c) {
      case 'n':
        cls.set('\n');
        return MakeClass(cls);
      case 't':
        cls.set('\t');
        return MakeClass(cls);
      case 'r':
        cls.set('\r');
        return MakeClass(cls);
      default:
        // Escaped literal (covers metacharacters and \\).
        cls.set(static_cast<uint8_t>(c));
        return MakeClass(cls);
    }
  }

  Result<NodePtr> ParseClass() {
    std::bitset<256> cls;
    bool negate = false;
    if (!AtEnd() && Peek() == '^') {
      Take();
      negate = true;
    }
    bool first = true;
    while (true) {
      if (AtEnd()) return Status::InvalidArgument("regex: unterminated [");
      char c = Take();
      if (c == ']' && !first) break;
      first = false;
      if (c == '\\') {
        if (AtEnd()) return Status::InvalidArgument("regex: bad class escape");
        char e = Take();
        std::bitset<256> sub;
        if (EscapeClass(e, sub)) {
          cls |= sub;
          continue;
        }
        switch (e) {
          case 'n':
            cls.set('\n');
            continue;
          case 't':
            cls.set('\t');
            continue;
          case 'r':
            cls.set('\r');
            continue;
          default:
            c = e;  // escaped literal; may start a range below
        }
      }
      if (!AtEnd() && Peek() == '-' && pos_ + 1 < p_.size() &&
          p_[pos_ + 1] != ']') {
        Take();  // '-'
        char hi = Take();
        if (hi == '\\') {
          if (AtEnd()) return Status::InvalidArgument("regex: bad range");
          hi = Take();
        }
        if (static_cast<uint8_t>(hi) < static_cast<uint8_t>(c)) {
          return Status::InvalidArgument("regex: inverted class range");
        }
        SetRange(cls, static_cast<uint8_t>(c), static_cast<uint8_t>(hi));
      } else {
        cls.set(static_cast<uint8_t>(c));
      }
    }
    return MakeClass(negate ? ~cls : cls);
  }

  std::string_view p_;
  size_t pos_ = 0;
};

}  // namespace

// ---------------------------------------------------------------------------
// Compilation: AST -> instruction list.
// ---------------------------------------------------------------------------

namespace {

struct CompileState {
  std::vector<std::bitset<256>>* classes;
};

}  // namespace

Result<Regex> Regex::Compile(std::string_view pattern) {
  Parser parser(pattern);
  DPDPU_ASSIGN_OR_RETURN(NodePtr root, parser.Parse());

  Regex re;
  re.pattern_ = std::string(pattern);

  // Emit instructions via an explicit recursion (lambda).
  struct Emitter {
    Regex* re;
    void Emit(const Node& n) {
      switch (n.kind) {
        case NodeKind::kClass: {
          int cls = static_cast<int>(re->classes_.size());
          re->classes_.push_back(n.char_class);
          re->program_.push_back(Inst{Op::kChar, cls, 0});
          break;
        }
        case NodeKind::kConcat:
          Emit(*n.left);
          Emit(*n.right);
          break;
        case NodeKind::kAlternate: {
          size_t split = re->program_.size();
          re->program_.push_back(Inst{Op::kSplit, 0, 0});
          Emit(*n.left);
          size_t jump = re->program_.size();
          re->program_.push_back(Inst{Op::kJump, 0, 0});
          re->program_[split].x = static_cast<int>(split + 1);
          re->program_[split].y = static_cast<int>(re->program_.size());
          Emit(*n.right);
          re->program_[jump].x = static_cast<int>(re->program_.size());
          break;
        }
        case NodeKind::kStar: {
          size_t split = re->program_.size();
          re->program_.push_back(Inst{Op::kSplit, 0, 0});
          Emit(*n.left);
          re->program_.push_back(
              Inst{Op::kJump, static_cast<int>(split), 0});
          re->program_[split].x = static_cast<int>(split + 1);
          re->program_[split].y = static_cast<int>(re->program_.size());
          break;
        }
        case NodeKind::kPlus: {
          size_t body = re->program_.size();
          Emit(*n.left);
          size_t split = re->program_.size();
          re->program_.push_back(Inst{Op::kSplit, static_cast<int>(body),
                                      static_cast<int>(split + 1)});
          break;
        }
        case NodeKind::kQuestion: {
          size_t split = re->program_.size();
          re->program_.push_back(Inst{Op::kSplit, 0, 0});
          Emit(*n.left);
          re->program_[split].x = static_cast<int>(split + 1);
          re->program_[split].y = static_cast<int>(re->program_.size());
          break;
        }
        case NodeKind::kEmpty:
          break;
        case NodeKind::kAssertBegin:
          re->program_.push_back(Inst{Op::kAssertBegin, 0, 0});
          break;
        case NodeKind::kAssertEnd:
          re->program_.push_back(Inst{Op::kAssertEnd, 0, 0});
          break;
      }
    }
  };
  Emitter{&re}.Emit(*root);
  re.program_.push_back(Inst{Op::kMatch, 0, 0});
  return re;
}

// ---------------------------------------------------------------------------
// Execution: lazy DFA over Pike-VM thread sets, Pike VM as the fallback.
// ---------------------------------------------------------------------------

// A DFA state is the sorted set of thread PCs after epsilon closure, taken
// as if the position were neither the start nor the end of the text: '^'
// threads die and '$' threads stay in the set as pending leaves. The two
// anchor positions are handled exactly: a scan from position 0 starts in
// a state closed with '^' holding, and at text.size() a state accepts
// when kMatch is reachable from it with '$' holding (`kAcceptsAtEnd`).
// Empty text runs on the Pike VM, the one case where both hold at once.
class Regex::Matcher {
 public:
  Matcher(const Regex& re, std::string_view text, Engine engine)
      : re_(re),
        text_(text),
        use_dfa_(engine == Engine::kLazyDfa && !text.empty()),
        mark_(re.program_.size(), 0) {
    if (!use_dfa_) return;
    // State 0 is the dead state: the empty set, every transition to itself.
    index_.emplace(std::vector<int>{}, kDead);
    states_.emplace_back();
    flags_.push_back(0);
    next_.assign(256, kDead);
    start_begin_ = StartState(true);
    start_mid_ = StartState(false);
  }

  /// Longest match end from `start`, or -1 when no match starts there.
  ptrdiff_t LongestFrom(size_t start) {
    if (use_dfa_) {
      ptrdiff_t end = DfaLongestFrom(start);
      if (end != kGaveUp) return end;
      use_dfa_ = false;  // state cap hit: this call finishes on the Pike VM
      fell_back_ = true;
    }
    return PikeLongestFrom(start);
  }

  /// First position >= `pos` at which a match may start: skips bytes on
  /// which the start state's transition is already known to be dead.
  size_t NextCandidate(size_t pos) const {
    if (!use_dfa_ || pos == 0 || (flags_[start_mid_] & kMatches)) return pos;
    const int32_t* row = &next_[size_t(start_mid_) * 256];
    while (pos < text_.size() && row[uint8_t(text_[pos])] == kDead) ++pos;
    return pos;
  }

  ScanStats stats() const { return ScanStats{states_.size(), fell_back_}; }

 private:
  static constexpr int32_t kDead = 0;
  static constexpr int32_t kUnknown = -1;
  static constexpr int32_t kGaveUp = -2;
  static constexpr uint8_t kMatches = 1;
  static constexpr uint8_t kAcceptsAtEnd = 2;

  // Adds `pc` and its epsilon closure to `list`. '^' holds only when
  // `at_begin`; a '$' that does not hold yet stays in the list as a
  // pending leaf (never a match, never consumes a byte).
  void Closure(std::vector<int>& list, int pc, bool at_begin, bool at_end) {
    if (mark_[pc] == gen_) return;
    mark_[pc] = gen_;
    const Inst& inst = re_.program_[pc];
    switch (inst.op) {
      case Op::kJump:
        Closure(list, inst.x, at_begin, at_end);
        break;
      case Op::kSplit:
        Closure(list, inst.x, at_begin, at_end);
        Closure(list, inst.y, at_begin, at_end);
        break;
      case Op::kAssertBegin:
        if (at_begin) Closure(list, pc + 1, at_begin, at_end);
        break;
      case Op::kAssertEnd:
        if (at_end) {
          Closure(list, pc + 1, at_begin, at_end);
        } else {
          list.push_back(pc);
        }
        break;
      default:
        list.push_back(pc);
        break;
    }
  }

  // Replaces `to` with the threads of `from` that consume byte `c`,
  // closed at the next position.
  void Step(const std::vector<int>& from, uint8_t c, bool at_end,
            std::vector<int>& to) {
    ++gen_;
    to.clear();
    for (int pc : from) {
      const Inst& inst = re_.program_[pc];
      if (inst.op == Op::kChar && re_.classes_[inst.x].test(c)) {
        Closure(to, pc + 1, false, at_end);
      }
    }
  }

  bool HasMatch(const std::vector<int>& pcs) const {
    for (int pc : pcs) {
      if (re_.program_[pc].op == Op::kMatch) return true;
    }
    return false;
  }

  // Pike VM: one anchored run from `start` with thread lists reused
  // across calls.
  ptrdiff_t PikeLongestFrom(size_t start) {
    const size_t len = text_.size();
    ptrdiff_t best = -1;
    ++gen_;
    current_.clear();
    Closure(current_, 0, start == 0, start == len);
    for (size_t pos = start;; ++pos) {
      if (HasMatch(current_)) best = static_cast<ptrdiff_t>(pos);
      if (pos >= len || current_.empty()) break;
      Step(current_, static_cast<uint8_t>(text_[pos]), pos + 1 == len, work_);
      std::swap(current_, work_);
    }
    return best;
  }

  // Returns the id of the state holding the PCs in `work_` (sorted in
  // place), creating it if new; kGaveUp when that would pass the cap.
  int32_t Intern() {
    std::sort(work_.begin(), work_.end());
    auto it = index_.find(work_);
    if (it != index_.end()) return it->second;
    if (states_.size() >= kMaxDfaStates) return kGaveUp;
    int32_t id = static_cast<int32_t>(states_.size());
    uint8_t flags = HasMatch(work_) ? kMatches : 0;
    states_.push_back(work_);
    index_.emplace(work_, id);
    ++gen_;
    current_.clear();
    for (int pc : states_.back()) Closure(current_, pc, false, true);
    if (HasMatch(current_)) flags |= kAcceptsAtEnd;
    flags_.push_back(flags);
    next_.resize(next_.size() + 256, kUnknown);
    return id;
  }

  int32_t StartState(bool at_begin) {
    ++gen_;
    work_.clear();
    Closure(work_, 0, at_begin, false);
    return Intern();
  }

  // Fills the transition of `state` on byte `c`.
  int32_t Fill(int32_t state, uint8_t c) {
    Step(states_[state], c, false, work_);
    int32_t target = Intern();
    if (target != kGaveUp) next_[size_t(state) * 256 + c] = target;
    return target;
  }

  // Longest match end from `start`, -1 for none, kGaveUp at the cap.
  ptrdiff_t DfaLongestFrom(size_t start) {
    const size_t len = text_.size();
    ptrdiff_t best = -1;
    int32_t s = start == 0 ? start_begin_ : start_mid_;
    for (size_t pos = start;; ++pos) {
      if (pos == len) {
        return (flags_[s] & kAcceptsAtEnd) ? static_cast<ptrdiff_t>(pos)
                                           : best;
      }
      if (flags_[s] & kMatches) best = static_cast<ptrdiff_t>(pos);
      uint8_t c = static_cast<uint8_t>(text_[pos]);
      int32_t t = next_[size_t(s) * 256 + c];
      if (t == kUnknown) {
        t = Fill(s, c);
        if (t == kGaveUp) return kGaveUp;
      }
      if (t == kDead) return best;
      s = t;
    }
  }

  const Regex& re_;
  std::string_view text_;
  bool use_dfa_;
  bool fell_back_ = false;

  // DFA: state id -> PC set, flags and 256 transitions (kUnknown until
  // first use); PC set -> state id.
  std::vector<std::vector<int>> states_;
  std::vector<uint8_t> flags_;
  std::vector<int32_t> next_;
  std::map<std::vector<int>, int32_t> index_;
  int32_t start_begin_ = kDead;  // scan from position 0 ('^' holds)
  int32_t start_mid_ = kDead;    // scan from any later position

  // Closure scratch shared by both executors; `mark_[pc] == gen_` means
  // pc is already in the list being built.
  std::vector<int> current_;
  std::vector<int> work_;
  std::vector<uint64_t> mark_;
  uint64_t gen_ = 0;
};

bool Regex::FullMatch(std::string_view text, Engine engine) const {
  Matcher m(*this, text, engine);
  return m.LongestFrom(0) == static_cast<ptrdiff_t>(text.size());
}

bool Regex::PartialMatch(std::string_view text, Engine engine) const {
  Matcher m(*this, text, engine);
  for (size_t start = 0; start <= text.size(); ++start) {
    start = m.NextCandidate(start);
    if (m.LongestFrom(start) >= 0) return true;
  }
  return false;
}

size_t Regex::CountMatches(std::string_view text, Engine engine,
                           ScanStats* stats) const {
  Matcher m(*this, text, engine);
  size_t count = 0;
  size_t pos = 0;
  while (pos <= text.size()) {
    pos = m.NextCandidate(pos);
    ptrdiff_t end = m.LongestFrom(pos);
    if (end < 0) {
      ++pos;
      continue;
    }
    ++count;
    pos = (static_cast<size_t>(end) > pos) ? static_cast<size_t>(end)
                                           : pos + 1;
  }
  if (stats != nullptr) *stats = m.stats();
  return count;
}

}  // namespace dpdpu::kern
