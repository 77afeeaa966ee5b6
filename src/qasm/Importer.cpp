//===- qasm/Importer.cpp - One-pass OpenQASM 2.0 importer ---------------------===//
//
// Part of the Qlosure project. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "qasm/Importer.h"

#include "route/Cancellation.h"
#include "support/StringUtils.h"

#include <algorithm>
#include <array>
#include <charconv>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <string_view>
#include <unordered_map>

using namespace qlosure;
using namespace qlosure::qasm;

namespace {

// Import budget. QASM reaching the daemon is untrusted: a 60-byte program
// can declare billions of qubits, and a 1 KB one can nest gate
// definitions that expand to 2^40 gates. Both caps sit far above what any
// in-repo generator emits (at most 256 qubits and ~84k gates: QUEKO at
// depth 900 on the 256-qubit devices).

/// 256x the largest device in topology/Backends; also keeps every flat
/// qubit index well inside the IR's int32 operands.
constexpr unsigned MaxImportQubits = 1u << 16;

/// ~50x the largest generated circuit, ~160 MB of gate IR.
constexpr uint64_t MaxImportGates = 1ull << 22;

/// Deepest user-gate nesting a call may expand through.
constexpr unsigned MaxGateNesting = 64;

/// Expression depth bound. Parentheses, function arguments, unary minus
/// and '^' recurse through parseUnary, and every '+', '-', '*', '/' in a
/// chain counts one more level. Past MaxExprDepth levels the expression
/// is rejected with a positioned error instead of overflowing the stack.
constexpr unsigned MaxExprDepth = 256;

/// A builtin (qelib1) gate descriptor.
struct BuiltinGate {
  GateKind Kind;
  unsigned NumParams;
  unsigned NumQubits;
};

const BuiltinGate *findBuiltin(std::string_view Name) {
  static const std::unordered_map<std::string_view, BuiltinGate> Table = {
      {"id", {GateKind::I, 0, 1}},    {"x", {GateKind::X, 0, 1}},
      {"y", {GateKind::Y, 0, 1}},     {"z", {GateKind::Z, 0, 1}},
      {"h", {GateKind::H, 0, 1}},     {"s", {GateKind::S, 0, 1}},
      {"sdg", {GateKind::Sdg, 0, 1}}, {"t", {GateKind::T, 0, 1}},
      {"tdg", {GateKind::Tdg, 0, 1}}, {"sx", {GateKind::SX, 0, 1}},
      {"rx", {GateKind::RX, 1, 1}},   {"ry", {GateKind::RY, 1, 1}},
      {"rz", {GateKind::RZ, 1, 1}},   {"p", {GateKind::P, 1, 1}},
      {"u1", {GateKind::U1, 1, 1}},   {"u2", {GateKind::U2, 2, 1}},
      {"u3", {GateKind::U3, 3, 1}},   {"u", {GateKind::U3, 3, 1}},
      {"cx", {GateKind::CX, 0, 2}},   {"CX", {GateKind::CX, 0, 2}},
      {"cz", {GateKind::CZ, 0, 2}},   {"cp", {GateKind::CP, 1, 2}},
      {"cu1", {GateKind::CP, 1, 2}},  {"crz", {GateKind::CRZ, 1, 2}},
      {"rzz", {GateKind::RZZ, 1, 2}}, {"ch", {GateKind::CH, 0, 2}},
      {"cy", {GateKind::CY, 0, 2}},   {"swap", {GateKind::Swap, 0, 2}},
      {"ccx", {GateKind::CCX, 0, 3}}, {"cswap", {GateKind::CSwap, 0, 3}}};
  auto It = Table.find(Name);
  return It == Table.end() ? nullptr : &It->second;
}

/// Token kinds. Keywords lex as identifiers; an Error token means the
/// lexer has recorded a diagnostic.
enum class Tok : uint8_t {
  Ident, Integer, Real, String, LParen, RParen, LBracket, RBracket, LBrace,
  RBrace, Semicolon, Comma, Arrow, Equals, Plus, Minus, Star, Slash, Caret,
  End, Error
};

/// A token is a view into the source; its position is its offset.
struct Token {
  Tok Kind = Tok::End;
  std::string_view Text;
};

/// One step of a parameter expression, in postfix order.
struct ExprOp {
  /// Const pushes Value, Slot pushes formal parameter Index; Neg..Sqrt
  /// apply to the top, Add..Pow combine the top two.
  enum Code : uint8_t {
    Const, Slot, Neg, Sin, Cos, Tan, Exp, Ln, Sqrt, Add, Sub, Mul, Div, Pow
  };
  Code Kind = Const;
  uint32_t Index = 0;
  double Value = 0;
};

/// One call inside a gate body, resolved when the definition is read.
struct BodyCall {
  const BuiltinGate *Builtin = nullptr; ///< Else a user gate:
  uint32_t Callee = 0;                  ///< index of an earlier definition.
  uint32_t FirstOperand = 0; ///< Into UserGate::Operands.
  uint32_t FirstParam = 0;   ///< Into UserGate::Params.
  uint32_t NumQubits = 0;
  uint32_t NumParams = 0;
};

/// A user gate definition in resolved form.
struct UserGate {
  uint32_t NumParams = 0;
  uint32_t NumQubits = 0;
  std::vector<BodyCall> Body;
  /// Formal qubit indices of every body call's operands.
  std::vector<uint32_t> Operands;
  /// [begin, end) into Code of every body call's parameters.
  std::vector<std::pair<uint32_t, uint32_t>> Params;
  /// Postfix code over the formal-parameter slots.
  std::vector<ExprOp> Code;
  /// Builtin gates one call emits, saturated at MaxImportGates + 1.
  uint64_t Size = 0;
  /// Depth of body calls one call expands through.
  unsigned Levels = 0;
};

/// A top-level operand: one qubit, or a whole register to broadcast over.
struct Operand {
  uint32_t Base = 0;
  uint32_t Count = 1;
};

/// A register reference as written: "q" (Index NoIndex) or "q[3]".
constexpr uint64_t NoIndex = ~uint64_t(0);
struct Ref {
  std::string_view Name;
  uint64_t Index = NoIndex;
};

/// Character classes: one table load per byte in the lexer's loops.
enum : uint8_t { Space = 1, Letter = 2, Digit = 4 };
constexpr std::array<uint8_t, 256> CharClass = [] {
  std::array<uint8_t, 256> Table{};
  for (char C : {' ', '\t', '\r', '\n'})
    Table[uint8_t(C)] = Space;
  for (int C = 0; C < 256; ++C)
    if ((C >= 'a' && C <= 'z') || (C >= 'A' && C <= 'Z') || C == '_')
      Table[C] = Letter;
    else if (C >= '0' && C <= '9')
      Table[C] = Digit;
  return Table;
}();
bool is(char C, uint8_t Class) { return CharClass[uint8_t(C)] & Class; }

/// Lexes, parses and lowers in one pass: each top-level statement is
/// lowered into the gate list as soon as it is read, so declarations must
/// precede their use.
class Importer {
public:
  Importer(std::string_view Source, const CancellationToken *Cancel)
      : Source(Source), Pos(Source.data()), Cancel(Cancel) {}

  ImportResult run(const std::string &Name) {
    ImportResult Result;
    if (!parseProgram()) {
      Result.Error = positionedError();
      Result.OverBudget = Failure == Outcome::OverBudget;
      Result.Cancelled = Failure == Outcome::Cancelled;
      return Result;
    }
    Result.Circ.emplace(NumQubits, Name);
    Result.Circ->gatesMutable() = std::move(Gates);
    return Result;
  }

private:
  enum class Outcome : uint8_t { Malformed, OverBudget, Cancelled };

  /// Records the first failure; always returns false.
  bool failAt(const char *At, std::string Message,
              Outcome Kind = Outcome::Malformed) {
    if (ErrorMessage.empty()) {
      ErrorAt = At;
      ErrorMessage = std::move(Message);
      Failure = Kind;
    }
    return false;
  }
  bool fail(std::string Message) {
    return failAt(Cur.Text.data(), std::move(Message));
  }
  /// A statement lowers while Cur is still its ';', before the next token
  /// is lexed, so its own errors are reported first.
  bool atSemicolon() {
    return Cur.Kind == Tok::Semicolon || fail("expected ';'");
  }
  bool expect(Tok Kind, const char *What) {
    if (Cur.Kind != Kind)
      return fail(std::string("expected ") + What);
    next();
    return true;
  }

  std::string positionedError() const {
    const std::string_view Before = Source.substr(0, ErrorAt - Source.data());
    const size_t Line = std::count(Before.begin(), Before.end(), '\n') + 1;
    const size_t LineStart = Before.rfind('\n') + 1; // npos + 1 == 0.
    return formatString("line %zu, column %zu: %s", Line,
                        Before.size() - LineStart + 1, ErrorMessage.c_str());
  }

  /// Polls the token every 256 statements (gate bodies included).
  bool pollCancel() {
    return !Cancel || Statements++ % 256 != 0 || !Cancel->cancelled() ||
           failAt(Cur.Text.data(), "import cancelled", Outcome::Cancelled);
  }

  // Lexer: a cursor over the source; Cur is the one token of lookahead.

  void next() {
    if (Cur.Kind == Tok::Error)
      return;
    const char *End = Source.data() + Source.size();
    for (;;) {
      while (Pos != End && is(*Pos, Space))
        ++Pos;
      if (End - Pos >= 2 && Pos[0] == '/' && Pos[1] == '/') {
        const void *Eol = std::memchr(Pos, '\n', End - Pos);
        Pos = Eol ? static_cast<const char *>(Eol) : End;
        continue;
      }
      if (End - Pos >= 2 && Pos[0] == '/' && Pos[1] == '*') {
        size_t Close = std::string_view(Pos + 2, End - Pos - 2).find("*/");
        Pos = Close == std::string_view::npos ? End : Pos + 2 + Close + 2;
        continue;
      }
      break;
    }
    const char *Start = Pos;
    auto token = [&](Tok Kind) {
      Cur = {Kind, std::string_view(Start, Pos - Start)};
    };
    auto lexError = [&](std::string Message) {
      Cur = {Tok::Error, std::string_view(Start, 0)};
      failAt(Start, std::move(Message));
    };
    if (Pos == End)
      return token(Tok::End);

    auto digits = [&] {
      while (Pos != End && is(*Pos, Digit))
        ++Pos;
    };
    const char C = *Pos;
    if (is(C, Letter)) {
      while (Pos != End && is(*Pos, Letter | Digit))
        ++Pos;
      return token(Tok::Ident);
    }
    if (is(C, Digit) || (C == '.' && End - Pos >= 2 && is(Pos[1], Digit))) {
      bool IsReal = false;
      digits();
      if (Pos != End && *Pos == '.') {
        IsReal = true;
        ++Pos;
        digits();
      }
      if (Pos != End && (*Pos == 'e' || *Pos == 'E')) {
        IsReal = true;
        ++Pos;
        if (Pos != End && (*Pos == '+' || *Pos == '-'))
          ++Pos;
        if (Pos == End || !is(*Pos, Digit))
          return lexError("malformed real literal '" +
                          std::string(Start, Pos) +
                          "': exponent has no digits");
        digits();
      }
      return token(IsReal ? Tok::Real : Tok::Integer);
    }
    if (C == '"') {
      const void *Close = std::memchr(Pos + 1, '"', End - Pos - 1);
      if (!Close)
        return lexError("unterminated string literal");
      Pos = static_cast<const char *>(Close) + 1;
      return token(Tok::String);
    }

    ++Pos;
    static constexpr std::string_view Single = "()[]{};,+*/^";
    static constexpr Tok SingleKinds[] = {
        Tok::LParen, Tok::RParen,    Tok::LBracket, Tok::RBracket,
        Tok::LBrace, Tok::RBrace,    Tok::Semicolon, Tok::Comma,
        Tok::Plus,   Tok::Star,      Tok::Slash,    Tok::Caret};
    if (size_t I = Single.find(C); I != std::string_view::npos)
      return token(SingleKinds[I]);
    // "-", "->" and "==".
    const bool Doubled = Pos != End && *Pos == (C == '-' ? '>' : '=');
    if (C == '-' || (C == '=' && Doubled)) {
      Pos += Doubled;
      return token(C == '=' ? Tok::Equals : Doubled ? Tok::Arrow : Tok::Minus);
    }
    return lexError(C == '=' ? std::string("stray '='")
                             : std::string("unexpected character '") + C +
                                   "'");
  }

  bool atIdent(std::string_view Word) const {
    return Cur.Kind == Tok::Ident && Cur.Text == Word;
  }

  /// Consumes an identifier into \p Out, else fails "expected What".
  bool ident(std::string_view &Out, const char *What) {
    if (Cur.Kind != Tok::Ident)
      return fail(std::string("expected ") + What);
    Out = Cur.Text;
    next();
    return true;
  }

  /// Consumes an integer into \p Out, saturated far above every budget.
  bool integer(uint64_t &Out, const char *What) {
    if (Cur.Kind != Tok::Integer)
      return fail(std::string("expected ") + What);
    Out = 0;
    for (char D : Cur.Text)
      Out = std::min<uint64_t>(Out * 10 + (D - '0'), 1ull << 40);
    next();
    return true;
  }

  /// Value of an Integer or Real token, rounded as strtod rounds.
  static double numberValue(std::string_view Text) {
    double Value = 0;
    auto [End, Ec] =
        std::from_chars(Text.data(), Text.data() + Text.size(), Value);
    if (Ec == std::errc::result_out_of_range)
      return std::strtod(std::string(Text).c_str(), nullptr);
    return Value;
  }

  // Statements

  bool parseProgram() {
    // About one gate per 8 bytes of typical text; growth covers the rest.
    Gates.reserve(std::min<size_t>(Source.size() / 8, 1u << 16));
    next();
    if (atIdent("OPENQASM")) {
      next();
      if (Cur.Kind != Tok::Real && Cur.Kind != Tok::Integer)
        return fail("expected version number after OPENQASM");
      next();
      if (!expect(Tok::Semicolon, "';' after version"))
        return false;
    }
    while (Cur.Kind != Tok::End)
      if (!pollCancel() || !parseStatement())
        return false;
    return true;
  }

  bool parseStatement() {
    if (Cur.Kind != Tok::Ident)
      return fail("expected a statement");
    StmtAt = Cur.Text.data();
    const std::string_view Word = Cur.Text;
    if (Word == "include") {
      next();
      return expect(Tok::String, "a string after include") &&
             expect(Tok::Semicolon, "';' after include");
    }
    if (Word == "qreg" || Word == "creg")
      return parseRegister(Word == "qreg");
    if (Word == "gate")
      return parseGateDef();
    if (Word == "opaque") {
      next();
      std::string_view Name;
      return ident(Name, "gate name") &&
             failAt(Name.data(), "opaque gate '" + std::string(Name) +
                                     "' has no definition to inline");
    }
    if (Word == "measure" || Word == "barrier")
      return parseNonUnitary(Word == "measure" ? GateKind::Measure
                                               : GateKind::Barrier);
    if (Word == "reset") {
      // Reset is non-unitary and does not constrain routing; it lowers to
      // nothing, and its operand is not resolved.
      next();
      Ref Target;
      return parseRef(Target) && expect(Tok::Semicolon, "';'");
    }
    if (Word == "if")
      return fail("classical control ('if') is not supported");
    return parseCall();
  }

  bool parseRegister(bool IsQuantum) {
    next();
    std::string_view Name;
    uint64_t Size = 0;
    if (!ident(Name, "register name") || !expect(Tok::LBracket, "'['") ||
        !integer(Size, "register size") || !expect(Tok::RBracket, "']'") ||
        !atSemicolon())
      return false;
    if (IsQuantum) {
      if (Size > MaxImportQubits - NumQubits)
        return failAt(StmtAt,
                      formatString("program declares more than %u qubits",
                                   MaxImportQubits),
                      Outcome::OverBudget);
      if (!Registers.emplace(Name, Operand{NumQubits, uint32_t(Size)}).second)
        return failAt(StmtAt, "duplicate qreg '" + std::string(Name) + "'");
      NumQubits += static_cast<uint32_t>(Size);
    }
    next();
    return true;
  }

  bool parseRef(Ref &R) {
    if (!ident(R.Name, "register reference"))
      return false;
    if (Cur.Kind != Tok::LBracket)
      return true;
    next();
    return integer(R.Index, "index") && expect(Tok::RBracket, "']'");
  }

  /// Parses a reference to a declared quantum register.
  bool parseOperand(Operand &Out) {
    const char *At = Cur.Text.data();
    Ref R;
    if (!parseRef(R))
      return false;
    auto It = Registers.find(R.Name);
    if (It == Registers.end())
      return failAt(At, "unknown quantum register '" + std::string(R.Name) +
                            "'");
    Out = It->second;
    if (R.Index == NoIndex)
      return true;
    if (R.Index >= Out.Count)
      return failAt(At, formatString(
                            "index %llu out of range for register %s[%u]",
                            static_cast<unsigned long long>(R.Index),
                            std::string(R.Name).c_str(), Out.Count));
    Out = {Out.Base + static_cast<uint32_t>(R.Index), 1};
    return true;
  }

  /// Parses Item, then more after each ','.
  template <typename ItemFn> bool parseList(ItemFn Item) {
    while (Item()) {
      if (Cur.Kind != Tok::Comma)
        return true;
      next();
    }
    return false;
  }

  bool parseOperands() {
    Args.clear();
    return parseList([&] { return parseOperand(Args.emplace_back()); });
  }

  /// "( expr, ... )" if present: each parameter's code goes to Code and
  /// its [begin, end) to Ranges.
  bool parseParams(std::vector<ExprOp> &Code,
                   std::vector<std::pair<uint32_t, uint32_t>> &Ranges) {
    if (Cur.Kind != Tok::LParen)
      return true;
    next();
    if (Cur.Kind != Tok::RParen && !parseList([&] {
          const uint32_t Begin = uint32_t(Code.size());
          if (!parseBinary(Code, 0))
            return false;
          Ranges.emplace_back(Begin, uint32_t(Code.size()));
          return true;
        }))
      return false;
    return expect(Tok::RParen, "')'");
  }

  /// measure and barrier lower to one Measure/Barrier gate per qubit.
  bool parseNonUnitary(GateKind Kind) {
    next();
    Ref Dst; // Classical bits are not modelled.
    Args.resize(1);
    const bool Parsed = Kind == GateKind::Measure
                            ? parseOperand(Args[0]) &&
                                  expect(Tok::Arrow, "'->' in measure") &&
                                  parseRef(Dst)
                            : parseOperands();
    if (!Parsed || !atSemicolon())
      return false;
    for (const Operand &Arg : Args)
      for (uint32_t I = 0; I < Arg.Count; ++I)
        if (!emit(Gate(Kind, int32_t(Arg.Base + I))))
          return false;
    next();
    return true;
  }

  /// A top-level gate call: parameters are evaluated as they are read,
  /// operands resolved, and the call lowered before its ';' is consumed.
  bool parseCall() {
    const std::string_view Name = Cur.Text;
    next();
    Scratch.clear();
    ScratchRanges.clear();
    if (!parseParams(Scratch, ScratchRanges) || !parseOperands() ||
        !atSemicolon())
      return false;
    ParamSlots.clear();
    for (auto [Begin, End] : ScratchRanges)
      ParamSlots.push_back(evaluate(Scratch, Begin, End, 0));
    if (!lowerCall(Name))
      return false;
    next();
    return true;
  }

  /// Lowers the call \p Name over ParamSlots and Args, once per broadcast
  /// instance.
  bool lowerCall(std::string_view Name) {
    const BuiltinGate *Builtin = findBuiltin(Name);
    const UserGate *Def = nullptr;
    uint32_t Index = 0;
    if (!Builtin) {
      auto It = GateIndex.find(Name);
      if (It == GateIndex.end())
        return failAt(StmtAt, "unknown gate '" + std::string(Name) + "'");
      Index = It->second;
      Def = &Defs[Index];
    }
    const size_t WantQubits = Builtin ? Builtin->NumQubits : Def->NumQubits;
    const size_t WantParams = Builtin ? Builtin->NumParams : Def->NumParams;
    if (!checkArity(StmtAt, Name, Args.size(), WantQubits, ParamSlots.size(),
                    WantParams))
      return false;

    // A whole-register operand broadcasts; all of them must agree.
    uint32_t Width = 1;
    bool Broadcast = false;
    for (const Operand &Arg : Args) {
      if (Arg.Count == 1)
        continue;
      if (Broadcast && Arg.Count != Width)
        return failAt(StmtAt, "mismatched broadcast widths in '" +
                                  std::string(Name) + "'");
      Width = Arg.Count;
      Broadcast = true;
    }
    if (Def && Def->Levels > MaxGateNesting)
      return failAt(StmtAt, "user gate expansion too deep");

    for (uint32_t B = 0; B < Width; ++B) {
      if (Def && Def->Size > MaxImportGates - Gates.size())
        return gateBudgetExceeded();
      QubitSlots.clear();
      for (const Operand &Arg : Args)
        QubitSlots.push_back(int32_t(Arg.Count == 1 ? Arg.Base : Arg.Base + B));
      if (!call(Builtin, Index, 0, 0))
        return false;
    }
    return true;
  }

  bool checkArity(const char *At, std::string_view Name, size_t Qubits,
                  size_t WantQubits, size_t Params, size_t WantParams) {
    if (Qubits == WantQubits && Params == WantParams)
      return true;
    return failAt(At, formatString("'%s' takes %zu qubits and %zu parameters, "
                                   "got %zu and %zu",
                                   std::string(Name).c_str(), WantQubits,
                                   WantParams, Qubits, Params));
  }

  // Gate definitions

  bool parseGateDef() {
    next();
    std::string_view Name;
    if (!ident(Name, "gate name"))
      return false;
    FormalParams.clear();
    FormalQubits.clear();
    if (Cur.Kind == Tok::LParen) {
      next();
      if (Cur.Kind != Tok::RParen && !parseList([&] {
            return ident(FormalParams.emplace_back(), "parameter name");
          }))
        return false;
      if (!expect(Tok::RParen, "')'"))
        return false;
    }
    if (!parseList([&] {
          return ident(FormalQubits.emplace_back(), "qubit parameter name");
        }) ||
        !expect(Tok::LBrace, "'{'"))
      return false;

    UserGate Def;
    Def.NumParams = uint32_t(FormalParams.size());
    Def.NumQubits = uint32_t(FormalQubits.size());
    while (Cur.Kind != Tok::RBrace) {
      if (Cur.Kind == Tok::End)
        return fail("unterminated gate body");
      if (!pollCancel())
        return false;
      if (atIdent("barrier")) {
        // Barriers inside bodies do not affect unitary semantics; skip.
        while (Cur.Kind != Tok::Semicolon && Cur.Kind != Tok::End &&
               Cur.Kind != Tok::Error)
          next();
        if (!expect(Tok::Semicolon, "';'"))
          return false;
        continue;
      }
      if (!parseBodyCall(Def))
        return false;
    }
    next();
    FormalParams.clear();
    GateIndex[Name] = uint32_t(Defs.size());
    Defs.push_back(std::move(Def));
    return true;
  }

  /// Index of formal \p Name in \p Formals, or -1. A repeated name binds
  /// its last occurrence.
  static int formalIndex(const std::vector<std::string_view> &Formals,
                         std::string_view Name) {
    for (size_t I = Formals.size(); I-- > 0;)
      if (Formals[I] == Name)
        return int(I);
    return -1;
  }

  bool parseBodyCall(UserGate &Def) {
    std::string_view Name;
    if (!ident(Name, "gate name"))
      return false;
    const char *At = Name.data();
    BodyCall Call;
    Call.FirstOperand = uint32_t(Def.Operands.size());
    Call.FirstParam = uint32_t(Def.Params.size());
    if (!parseParams(Def.Code, Def.Params) || !parseList([&] {
          if (Cur.Kind != Tok::Ident)
            return fail("expected register reference");
          const int Formal = formalIndex(FormalQubits, Cur.Text);
          if (Formal < 0)
            return fail("unknown formal qubit '" + std::string(Cur.Text) +
                        "'");
          Def.Operands.push_back(uint32_t(Formal));
          next();
          return true;
        }))
      return false;
    if (!expect(Tok::Semicolon, "';'"))
      return false;

    Call.NumQubits = uint32_t(Def.Operands.size() - Call.FirstOperand);
    Call.NumParams = uint32_t(Def.Params.size() - Call.FirstParam);
    uint64_t Size = 1;
    unsigned Levels = 1;
    if ((Call.Builtin = findBuiltin(Name))) {
      if (!checkArity(At, Name, Call.NumQubits, Call.Builtin->NumQubits,
                      Call.NumParams, Call.Builtin->NumParams))
        return false;
    } else {
      auto It = GateIndex.find(Name);
      if (It == GateIndex.end())
        return failAt(At, "unknown gate '" + std::string(Name) + "'");
      Call.Callee = It->second;
      const UserGate &Callee = Defs[Call.Callee];
      if (!checkArity(At, Name, Call.NumQubits, Callee.NumQubits,
                      Call.NumParams, Callee.NumParams))
        return false;
      Size = Callee.Size;
      Levels = 1 + Callee.Levels;
    }
    Def.Size = std::min(Def.Size + Size, MaxImportGates + 1);
    Def.Levels = std::max(Def.Levels, Levels);
    Def.Body.push_back(Call);
    return true;
  }

  /// Emits one call of a builtin, or of user gate \p Index, with its
  /// qubits at QubitSlots[QubitBase...] and its parameters at
  /// ParamSlots[ParamBase...]. The caller has checked the arity, the
  /// nesting depth and that the whole expansion fits the gate budget.
  bool call(const BuiltinGate *Builtin, uint32_t Index, size_t QubitBase,
            size_t ParamBase) {
    if (!Builtin)
      return expand(Index, QubitBase, ParamBase);
    Gate G;
    G.Kind = Builtin->Kind;
    for (unsigned I = 0; I < Builtin->NumQubits; ++I) {
      G.Qubits[I] = QubitSlots[QubitBase + I];
      for (unsigned J = 0; J < I; ++J)
        if (G.Qubits[J] == G.Qubits[I])
          return failAt(StmtAt, formatString("repeated qubit operand in '%s'",
                                             gateName(G.Kind)));
    }
    for (unsigned I = 0; I < Builtin->NumParams; ++I)
      G.Params[I] = ParamSlots[ParamBase + I];
    return emit(G);
  }

  /// Emits the body of user gate \p Index: each body call binds its
  /// operands and evaluated parameters in fresh slots above the caller's.
  bool expand(uint32_t Index, size_t QubitBase, size_t ParamBase) {
    const UserGate &Def = Defs[Index];
    for (const BodyCall &Call : Def.Body) {
      const size_t Qubits = QubitSlots.size(), Params = ParamSlots.size();
      for (uint32_t I = 0; I < Call.NumQubits; ++I)
        QubitSlots.push_back(int32_t(
            QubitSlots[QubitBase + Def.Operands[Call.FirstOperand + I]]));
      for (uint32_t I = 0; I < Call.NumParams; ++I) {
        auto [Begin, End] = Def.Params[Call.FirstParam + I];
        ParamSlots.push_back(evaluate(Def.Code, Begin, End, ParamBase));
      }
      const bool Ok = call(Call.Builtin, Call.Callee, Qubits, Params);
      QubitSlots.resize(Qubits);
      ParamSlots.resize(Params);
      if (!Ok)
        return false;
    }
    return true;
  }

  bool gateBudgetExceeded() {
    return failAt(StmtAt,
                  formatString("program expands to more than %llu gates",
                               static_cast<unsigned long long>(
                                   MaxImportGates)),
                  Outcome::OverBudget);
  }

  /// Appends \p G, charging it to the gate budget.
  bool emit(const Gate &G) {
    if (Gates.size() >= MaxImportGates)
      return gateBudgetExceeded();
    if (Cancel && Gates.size() % 4096 == 0 && Cancel->cancelled())
      return failAt(StmtAt, "import cancelled", Outcome::Cancelled);
    Gates.push_back(G);
    return true;
  }

  // Parameter expressions: parsed to postfix code, so a top-level call
  // evaluates its parameters at once and a definition stores its body's.

  /// Enters one more expression level; false past MaxExprDepth. A parse
  /// function that enters levels restores ExprDepth when it succeeds (a
  /// failure ends the import).
  bool deeper() {
    if (ExprDepth == MaxExprDepth)
      return fail("expression nested too deeply");
    ++ExprDepth;
    return true;
  }

  /// Level 0 chains '+'/'-' over level 1, which chains '*'/'/' over
  /// unary terms; both associate left.
  bool parseBinary(std::vector<ExprOp> &Code, int Level) {
    const unsigned Depth = ExprDepth;
    auto term = [&] {
      return Level == 0 ? parseBinary(Code, 1) : parseUnary(Code);
    };
    if (!term())
      return false;
    const Tok Ops[2][2] = {{Tok::Plus, Tok::Minus}, {Tok::Star, Tok::Slash}};
    while (Cur.Kind == Ops[Level][0] || Cur.Kind == Ops[Level][1]) {
      // Add, Sub, Mul, Div in that order.
      const auto Op = ExprOp::Code(ExprOp::Add + 2 * Level +
                                   (Cur.Kind == Ops[Level][1]));
      if (!deeper())
        return false;
      next();
      if (!term())
        return false;
      Code.push_back({Op});
    }
    ExprDepth = Depth;
    return true;
  }

  // Unary minus binds looser than '^' (so "-2^2" is -(2^2)), matching the
  // usual mathematical convention.
  bool parseUnary(std::vector<ExprOp> &Code) {
    const unsigned Depth = ExprDepth;
    if (!deeper())
      return false;
    if (Cur.Kind == Tok::Minus) {
      next();
      if (!parseUnary(Code))
        return false;
      Code.push_back({ExprOp::Neg});
    } else if (!parsePrimary(Code)) {
      return false;
    } else if (Cur.Kind == Tok::Caret) {
      next();
      if (!parseUnary(Code)) // Right associative; permits "2^-3".
        return false;
      Code.push_back({ExprOp::Pow});
    }
    ExprDepth = Depth;
    return true;
  }

  bool parsePrimary(std::vector<ExprOp> &Code) {
    const bool Pi = atIdent("pi");
    if (Cur.Kind == Tok::Integer || Cur.Kind == Tok::Real || Pi) {
      Code.push_back({ExprOp::Const, 0, Pi ? M_PI : numberValue(Cur.Text)});
      next();
      return true;
    }
    if (Cur.Kind == Tok::LParen) {
      next();
      return parseBinary(Code, 0) && expect(Tok::RParen, "')'");
    }
    if (Cur.Kind != Tok::Ident)
      return fail("expected an expression");
    const std::string_view Name = Cur.Text;
    static constexpr std::pair<std::string_view, ExprOp::Code> Functions[] = {
        {"sin", ExprOp::Sin}, {"cos", ExprOp::Cos}, {"tan", ExprOp::Tan},
        {"exp", ExprOp::Exp}, {"ln", ExprOp::Ln},   {"sqrt", ExprOp::Sqrt}};
    for (auto [Fn, Op] : Functions) {
      if (Name != Fn)
        continue;
      next();
      if (!expect(Tok::LParen, "'(' after function name") ||
          !parseBinary(Code, 0) || !expect(Tok::RParen, "')'"))
        return false;
      Code.push_back({Op});
      return true;
    }
    // A formal parameter; only gate bodies have any.
    int Slot = formalIndex(FormalParams, Name);
    if (Slot < 0)
      return fail("unknown parameter '" + std::string(Name) + "'");
    Code.push_back({ExprOp::Slot, uint32_t(Slot)});
    next();
    return true;
  }

  static double apply(ExprOp::Code Op, double L, double R) {
    switch (Op) {
    case ExprOp::Neg:
      return -L;
    case ExprOp::Sin:
      return std::sin(L);
    case ExprOp::Cos:
      return std::cos(L);
    case ExprOp::Tan:
      return std::tan(L);
    case ExprOp::Exp:
      return std::exp(L);
    case ExprOp::Ln:
      return std::log(L);
    case ExprOp::Sqrt:
      return std::sqrt(L);
    case ExprOp::Add:
      return L + R;
    case ExprOp::Sub:
      return L - R;
    case ExprOp::Mul:
      return L * R;
    case ExprOp::Div:
      return L / R;
    default:
      return std::pow(L, R);
    }
  }

  /// Runs Code[Begin, End) with slot I bound to ParamSlots[ParamBase + I].
  double evaluate(const std::vector<ExprOp> &Code, uint32_t Begin,
                  uint32_t End, size_t ParamBase) {
    Stack.clear();
    for (uint32_t I = Begin; I < End; ++I) {
      const ExprOp &Op = Code[I];
      if (Op.Kind <= ExprOp::Slot) {
        Stack.push_back(Op.Kind == ExprOp::Const
                            ? Op.Value
                            : ParamSlots[ParamBase + Op.Index]);
        continue;
      }
      double R = 0;
      if (Op.Kind >= ExprOp::Add) {
        R = Stack.back();
        Stack.pop_back();
      }
      Stack.back() = apply(Op.Kind, Stack.back(), R);
    }
    return Stack.back();
  }

  std::string_view Source;
  const char *Pos;
  const CancellationToken *Cancel;
  Token Cur;
  uint64_t Statements = 0;
  unsigned ExprDepth = 0;
  /// Start of the top-level statement being read; lowering errors point
  /// here.
  const char *StmtAt = nullptr;

  uint32_t NumQubits = 0;
  std::unordered_map<std::string_view, Operand> Registers;
  std::vector<UserGate> Defs;
  std::unordered_map<std::string_view, uint32_t> GateIndex;
  std::vector<Gate> Gates;

  // Reused per statement.
  std::vector<std::string_view> FormalParams, FormalQubits;
  std::vector<Operand> Args;
  std::vector<ExprOp> Scratch;
  std::vector<std::pair<uint32_t, uint32_t>> ScratchRanges;
  std::vector<int32_t> QubitSlots;
  std::vector<double> ParamSlots;
  std::vector<double> Stack;

  const char *ErrorAt = nullptr;
  std::string ErrorMessage;
  Outcome Failure = Outcome::Malformed;
};

} // namespace

ImportResult qasm::importQasm(const std::string &Source,
                              const std::string &Name,
                              const CancellationToken *Cancel) {
  return Importer(Source, Cancel).run(Name);
}
