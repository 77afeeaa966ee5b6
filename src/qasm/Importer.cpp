//===- qasm/Importer.cpp - AST to circuit IR conversion ------------------------===//
//
// Part of the Qlosure project. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "qasm/Importer.h"

#include "qasm/Parser.h"
#include "route/Cancellation.h"
#include "support/StringUtils.h"

#include <algorithm>
#include <map>
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

/// Deepest user-gate nesting lowering follows (recursive definitions
/// would otherwise never end).
constexpr unsigned MaxGateNesting = 64;

/// A builtin (qelib1) gate descriptor.
struct BuiltinGate {
  GateKind Kind;
  unsigned NumParams;
  unsigned NumQubits;
};

const std::map<std::string, BuiltinGate> &builtinGates() {
  static const std::map<std::string, BuiltinGate> Table = {
      {"id", {GateKind::I, 0, 1}},      {"x", {GateKind::X, 0, 1}},
      {"y", {GateKind::Y, 0, 1}},       {"z", {GateKind::Z, 0, 1}},
      {"h", {GateKind::H, 0, 1}},       {"s", {GateKind::S, 0, 1}},
      {"sdg", {GateKind::Sdg, 0, 1}},   {"t", {GateKind::T, 0, 1}},
      {"tdg", {GateKind::Tdg, 0, 1}},   {"sx", {GateKind::SX, 0, 1}},
      {"rx", {GateKind::RX, 1, 1}},     {"ry", {GateKind::RY, 1, 1}},
      {"rz", {GateKind::RZ, 1, 1}},     {"p", {GateKind::P, 1, 1}},
      {"u1", {GateKind::U1, 1, 1}},     {"u2", {GateKind::U2, 2, 1}},
      {"u3", {GateKind::U3, 3, 1}},     {"u", {GateKind::U3, 3, 1}},
      {"cx", {GateKind::CX, 0, 2}},     {"CX", {GateKind::CX, 0, 2}},
      {"cz", {GateKind::CZ, 0, 2}},     {"cp", {GateKind::CP, 1, 2}},
      {"cu1", {GateKind::CP, 1, 2}},    {"crz", {GateKind::CRZ, 1, 2}},
      {"rzz", {GateKind::RZZ, 1, 2}},   {"ch", {GateKind::CH, 0, 2}},
      {"cy", {GateKind::CY, 0, 2}},     {"swap", {GateKind::Swap, 0, 2}},
      {"ccx", {GateKind::CCX, 0, 3}},   {"cswap", {GateKind::CSwap, 0, 3}},
  };
  return Table;
}

class ImporterImpl {
public:
  ImporterImpl(const Program &Prog, const CancellationToken *Cancel)
      : Prog(Prog), Cancel(Cancel) {}

  ImportResult run(const std::string &Name) {
    // Pass 1: collect registers and user gate definitions.
    unsigned NextQubit = 0;
    for (const Statement &Stmt : Prog.Statements) {
      if (Stmt.StmtKind == Statement::Kind::Reg) {
        if (Stmt.Reg.IsQuantum) {
          if (QregBase.count(Stmt.Reg.Name))
            return fail("duplicate qreg '" + Stmt.Reg.Name + "'");
          if (Stmt.Reg.Size > MaxImportQubits - NextQubit) {
            OverBudget = true;
            return fail(formatString("program declares more than %u qubits",
                                     MaxImportQubits));
          }
          QregBase[Stmt.Reg.Name] = NextQubit;
          QregSize[Stmt.Reg.Name] = Stmt.Reg.Size;
          NextQubit += Stmt.Reg.Size;
        }
        continue;
      }
      if (Stmt.StmtKind == Statement::Kind::Gate) {
        if (Stmt.Gate.IsOpaque)
          return fail("opaque gate '" + Stmt.Gate.Name +
                      "' has no definition to inline");
        UserGates[Stmt.Gate.Name] = &Stmt.Gate;
      }
    }

    Circuit Circ(NextQubit, Name);

    // Pass 2: lower statements in order.
    for (const Statement &Stmt : Prog.Statements) {
      switch (Stmt.StmtKind) {
      case Statement::Kind::Reg:
      case Statement::Kind::Gate:
        break;
      case Statement::Kind::Call:
        if (!lowerCall(Circ, Stmt.Call, {}, {}))
          return fail(ErrorMessage);
        break;
      case Statement::Kind::Measure: {
        auto Qubits = resolveArg(Stmt.Measure.Src);
        if (!Qubits)
          return fail(ErrorMessage);
        for (int32_t Q : *Qubits)
          if (!addGate(Circ, Gate(GateKind::Measure, Q)))
            return fail(ErrorMessage);
        break;
      }
      case Statement::Kind::Barrier: {
        for (const Argument &Arg : Stmt.Barrier.Args) {
          auto Qubits = resolveArg(Arg);
          if (!Qubits)
            return fail(ErrorMessage);
          for (int32_t Q : *Qubits)
            if (!addGate(Circ, Gate(GateKind::Barrier, Q)))
              return fail(ErrorMessage);
        }
        break;
      }
      case Statement::Kind::Reset:
        // Reset is non-unitary; for mapping purposes it behaves like a
        // single-qubit op, but we simply ignore it (QASMBench circuits do
        // not depend on it for routing).
        break;
      }
    }

    ImportResult Result;
    Result.Circ = std::move(Circ);
    return Result;
  }

private:
  ImportResult fail(const std::string &Message) {
    ImportResult Result;
    Result.Error = Message;
    Result.OverBudget = OverBudget;
    Result.Cancelled = Cancelled;
    return Result;
  }

  bool setError(const std::string &Message) {
    if (ErrorMessage.empty())
      ErrorMessage = Message;
    return false;
  }

  bool gateBudgetExceeded() {
    OverBudget = true;
    return setError(formatString("program expands to more than %llu gates",
                                 static_cast<unsigned long long>(
                                     MaxImportGates)));
  }

  /// Appends \p G, charging it to the gate budget.
  bool addGate(Circuit &Circ, const Gate &G) {
    if (Emitted >= MaxImportGates)
      return gateBudgetExceeded();
    if (Cancel && Emitted % 4096 == 0 && Cancel->cancelled()) {
      Cancelled = true;
      return setError("import cancelled");
    }
    ++Emitted;
    Circ.addGate(G);
    return true;
  }

  /// Builtin gates one call of \p Def at nesting \p Depth expands to,
  /// saturated at MaxImportGates + 1 and memoized per definition, so a
  /// call whose expansion cannot fit the budget fails before emitting
  /// anything. Recursion and nesting past lowering's depth limit count 0:
  /// lowering rejects both, and an undercount only delays the rejection
  /// to the gate counter in addGate.
  uint64_t expandedSize(const GateDef &Def, unsigned Depth) {
    if (Depth > MaxGateNesting)
      return 0;
    auto [It, Fresh] = Sizes.try_emplace(&Def, 0);
    if (!Fresh)
      return It->second;
    uint64_t Total = 0;
    for (const GateCall &Call : Def.Body) {
      auto UI = UserGates.find(Call.Name);
      uint64_t Size =
          UI == UserGates.end() ? 1 : expandedSize(*UI->second, Depth + 1);
      Total = std::min(Total + Size, MaxImportGates + 1);
    }
    return Sizes[&Def] = Total;
  }

  /// Resolves a top-level argument to flat qubit indices (1 for q[i],
  /// register-size many for a bare register).
  std::optional<std::vector<int32_t>> resolveArg(const Argument &Arg) {
    auto BaseIt = QregBase.find(Arg.Reg);
    if (BaseIt == QregBase.end()) {
      setError("unknown quantum register '" + Arg.Reg + "'");
      return std::nullopt;
    }
    unsigned Base = BaseIt->second;
    unsigned Size = QregSize[Arg.Reg];
    std::vector<int32_t> Qubits;
    if (Arg.Index) {
      if (*Arg.Index >= Size) {
        setError(formatString("index %u out of range for register %s[%u]",
                              *Arg.Index, Arg.Reg.c_str(), Size));
        return std::nullopt;
      }
      Qubits.push_back(static_cast<int32_t>(Base + *Arg.Index));
    } else {
      for (unsigned I = 0; I < Size; ++I)
        Qubits.push_back(static_cast<int32_t>(Base + I));
    }
    return Qubits;
  }

  /// Lowers one gate call. Inside user-gate bodies, \p FormalQubits binds
  /// formal qubit names to flat indices and \p ParamValues binds formal
  /// parameters.
  bool lowerCall(Circuit &Circ, const GateCall &Call,
                 const std::map<std::string, int32_t> &FormalQubits,
                 const std::map<std::string, double> &ParamValues,
                 unsigned Depth = 0) {
    if (Depth > MaxGateNesting)
      return setError("user gate expansion too deep (recursive definition?)");

    // Evaluate parameters once.
    std::vector<double> Params;
    Params.reserve(Call.Params.size());
    for (const auto &E : Call.Params) {
      auto V = E->evaluate(ParamValues);
      if (!V)
        return setError(formatString(
            "line %u: cannot evaluate parameter of '%s'", Call.Line,
            Call.Name.c_str()));
      Params.push_back(*V);
    }

    // Resolve each argument to one or more flat qubits (broadcasting).
    std::vector<std::vector<int32_t>> ArgQubits;
    size_t BroadcastWidth = 1;
    for (const Argument &Arg : Call.Args) {
      // Inside a body, bare identifiers are formals.
      if (!FormalQubits.empty() && !Arg.Index) {
        auto It = FormalQubits.find(Arg.Reg);
        if (It == FormalQubits.end())
          return setError("unknown formal qubit '" + Arg.Reg + "' in gate '" +
                          Call.Name + "'");
        ArgQubits.push_back({It->second});
        continue;
      }
      auto Qubits = resolveArg(Arg);
      if (!Qubits)
        return false;
      if (Qubits->size() > 1) {
        if (BroadcastWidth != 1 && BroadcastWidth != Qubits->size())
          return setError(formatString(
              "line %u: mismatched broadcast widths in '%s'", Call.Line,
              Call.Name.c_str()));
        BroadcastWidth = Qubits->size();
      }
      ArgQubits.push_back(std::move(*Qubits));
    }

    for (size_t B = 0; B < BroadcastWidth; ++B) {
      std::vector<int32_t> Operands;
      Operands.reserve(ArgQubits.size());
      for (const auto &Qubits : ArgQubits)
        Operands.push_back(Qubits.size() == 1 ? Qubits[0] : Qubits[B]);
      if (!emitOne(Circ, Call, Params, Operands, Depth))
        return false;
    }
    return true;
  }

  bool emitOne(Circuit &Circ, const GateCall &Call,
               const std::vector<double> &Params,
               const std::vector<int32_t> &Operands, unsigned Depth) {
    auto BI = builtinGates().find(Call.Name);
    if (BI != builtinGates().end()) {
      const BuiltinGate &B = BI->second;
      if (Operands.size() != B.NumQubits)
        return setError(formatString("line %u: '%s' expects %u qubits, got %zu",
                                     Call.Line, Call.Name.c_str(), B.NumQubits,
                                     Operands.size()));
      if (Params.size() != B.NumParams)
        return setError(formatString(
            "line %u: '%s' expects %u parameters, got %zu", Call.Line,
            Call.Name.c_str(), B.NumParams, Params.size()));
      Gate G;
      G.Kind = B.Kind;
      for (size_t I = 0; I < Operands.size(); ++I)
        G.Qubits[I] = Operands[I];
      for (size_t I = 0; I < Params.size(); ++I)
        G.Params[I] = Params[I];
      // Distinct-operand check: delegate to the circuit's assertions but
      // produce a recoverable error for user input.
      for (size_t I = 0; I < Operands.size(); ++I)
        for (size_t J = I + 1; J < Operands.size(); ++J)
          if (Operands[I] == Operands[J])
            return setError(formatString(
                "line %u: repeated qubit operand in '%s'", Call.Line,
                Call.Name.c_str()));
      return addGate(Circ, G);
    }

    auto UI = UserGates.find(Call.Name);
    if (UI == UserGates.end())
      return setError(formatString("line %u: unknown gate '%s'", Call.Line,
                                   Call.Name.c_str()));
    const GateDef &Def = *UI->second;
    if (Operands.size() != Def.QubitNames.size())
      return setError(formatString("line %u: '%s' expects %zu qubits, got %zu",
                                   Call.Line, Call.Name.c_str(),
                                   Def.QubitNames.size(), Operands.size()));
    if (Params.size() != Def.ParamNames.size())
      return setError(formatString(
          "line %u: '%s' expects %zu parameters, got %zu", Call.Line,
          Call.Name.c_str(), Def.ParamNames.size(), Params.size()));
    if (expandedSize(Def, Depth) > MaxImportGates - Emitted)
      return gateBudgetExceeded();

    std::map<std::string, int32_t> BodyQubits;
    for (size_t I = 0; I < Operands.size(); ++I)
      BodyQubits[Def.QubitNames[I]] = Operands[I];
    std::map<std::string, double> BodyParams;
    for (size_t I = 0; I < Params.size(); ++I)
      BodyParams[Def.ParamNames[I]] = Params[I];

    for (const GateCall &Inner : Def.Body)
      if (!lowerCall(Circ, Inner, BodyQubits, BodyParams, Depth + 1))
        return false;
    return true;
  }

  const Program &Prog;
  const CancellationToken *Cancel;
  std::map<std::string, unsigned> QregBase;
  std::map<std::string, unsigned> QregSize;
  std::map<std::string, const GateDef *> UserGates;
  std::unordered_map<const GateDef *, uint64_t> Sizes;
  uint64_t Emitted = 0;
  std::string ErrorMessage;
  bool OverBudget = false;
  bool Cancelled = false;
};

} // namespace

ImportResult qasm::importProgram(const Program &Prog, const std::string &Name,
                                 const CancellationToken *Cancel) {
  return ImporterImpl(Prog, Cancel).run(Name);
}

ImportResult qasm::importQasm(const std::string &Source,
                              const std::string &Name,
                              const CancellationToken *Cancel) {
  ParseResult Parsed = parseQasm(Source, Cancel);
  if (!Parsed.succeeded()) {
    ImportResult Result;
    Result.Error = Parsed.Error;
    // The token latches, so a fired one means the parse stopped for it.
    Result.Cancelled = Cancel && Cancel->cancelled();
    return Result;
  }
  return importProgram(*Parsed.Prog, Name, Cancel);
}
