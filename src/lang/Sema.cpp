//===- lang/Sema.cpp -------------------------------------------------------===//
//
// Part of the gprof-repro project.
//
//===----------------------------------------------------------------------===//

#include "lang/Sema.h"

#include "support/Format.h"

#include <cassert>
#include <map>
#include <string>
#include <unordered_map>
#include <vector>

using namespace gprof;

namespace {

/// Per-function resolution state: a stack of lexical scopes mapping names
/// to frame slots.
class FunctionScope {
public:
  void push() { Scopes.emplace_back(); }
  void pop() {
    assert(!Scopes.empty() && "scope underflow");
    Scopes.pop_back();
  }

  /// Declares \p Name in the innermost scope; returns the assigned slot or
  /// ~0u if the name is already declared in this scope.
  uint32_t declare(const std::string &Name) {
    assert(!Scopes.empty() && "no open scope");
    auto &Scope = Scopes.back();
    if (Scope.count(Name))
      return ~0u;
    uint32_t Slot = NextSlot++;
    if (NextSlot > MaxSlots)
      MaxSlots = NextSlot;
    Scope.emplace(Name, Slot);
    return Slot;
  }

  /// Looks \p Name up through enclosing scopes; returns ~0u if unbound.
  uint32_t lookup(const std::string &Name) const {
    for (auto It = Scopes.rbegin(); It != Scopes.rend(); ++It) {
      auto Found = It->find(Name);
      if (Found != It->end())
        return Found->second;
    }
    return ~0u;
  }

  /// Records the slot watermark when a scope opens so sibling scopes can
  /// reuse slots.
  uint32_t watermark() const { return NextSlot; }
  void resetTo(uint32_t Mark) { NextSlot = Mark; }

  uint32_t maxSlots() const { return MaxSlots; }

private:
  std::vector<std::map<std::string, uint32_t>> Scopes;
  uint32_t NextSlot = 0;
  uint32_t MaxSlots = 0;
};

/// The analysis walker.
class SemaVisitor {
public:
  SemaVisitor(Program &P, DiagnosticEngine &Diags) : P(P), Diags(Diags) {}

  bool run();

private:
  void analyzeFunction(FunctionDecl &F);
  void analyzeStmt(Stmt &S, FunctionScope &Scope);
  void analyzeExpr(Expr &E, FunctionScope &Scope);

  using NameIndex = std::unordered_map<std::string, uint32_t>;

  /// The index \p Names maps \p Name to, or ~0u.
  static uint32_t indexOf(const NameIndex &Names, const std::string &Name) {
    auto It = Names.find(Name);
    return It == Names.end() ? ~0u : It->second;
  }
  uint32_t findFunction(const std::string &Name) const {
    return indexOf(Functions, Name);
  }
  uint32_t findGlobal(const std::string &Name) const {
    return indexOf(Globals, Name);
  }

  Program &P;
  DiagnosticEngine &Diags;
  /// Each function and global name to its first declaration, built once
  /// in run(), so resolving a name does not scan every declaration.
  NameIndex Functions, Globals;
};

bool SemaVisitor::run() {
  // Duplicate-declaration checks across the whole unit; a redefinition
  // is an error and the first declaration keeps the name.
  for (uint32_t I = 0; I != P.Functions.size(); ++I) {
    const FunctionDecl &F = P.Functions[I];
    if (!Functions.emplace(F.Name, I).second)
      Diags.error(F.Loc,
                  format("redefinition of function '%s'", F.Name.c_str()));
  }
  for (uint32_t I = 0; I != P.Globals.size(); ++I) {
    const GlobalVarDecl &G = P.Globals[I];
    if (!Globals.emplace(G.Name, I).second)
      Diags.error(G.Loc, format("redefinition of global variable '%s'",
                                G.Name.c_str()));
    if (Functions.count(G.Name))
      Diags.error(G.Loc,
                  format("global variable '%s' collides with a function",
                         G.Name.c_str()));
  }

  uint32_t MainIdx = findFunction("main");
  if (MainIdx == ~0u)
    Diags.error(SourceLocation(), "program has no 'main' function");
  else if (!P.Functions[MainIdx].Params.empty())
    Diags.error(P.Functions[MainIdx].Loc,
                "'main' must take no parameters");

  for (FunctionDecl &F : P.Functions)
    analyzeFunction(F);
  return !Diags.hasErrors();
}

void SemaVisitor::analyzeFunction(FunctionDecl &F) {
  FunctionScope Scope;
  Scope.push();
  for (const std::string &Param : F.Params)
    if (Scope.declare(Param) == ~0u)
      Diags.error(F.Loc, format("duplicate parameter '%s' in function '%s'",
                                Param.c_str(), F.Name.c_str()));
  if (F.Body)
    analyzeStmt(*F.Body, Scope);
  Scope.pop();
  F.NumSlots = Scope.maxSlots();
}

void SemaVisitor::analyzeStmt(Stmt &S, FunctionScope &Scope) {
  switch (S.kind()) {
  case StmtKind::Block: {
    auto &Block = static_cast<BlockStmt &>(S);
    uint32_t Mark = Scope.watermark();
    Scope.push();
    for (StmtPtr &Child : Block.Body)
      analyzeStmt(*Child, Scope);
    Scope.pop();
    Scope.resetTo(Mark);
    return;
  }
  case StmtKind::VarDecl: {
    auto &Decl = static_cast<VarDeclStmt &>(S);
    if (Decl.Init)
      analyzeExpr(*Decl.Init, Scope);
    uint32_t Slot = Scope.declare(Decl.Name);
    if (Slot == ~0u) {
      Diags.error(S.loc(), format("redeclaration of variable '%s'",
                                  Decl.Name.c_str()));
      Slot = 0;
    }
    Decl.Slot = Slot;
    return;
  }
  case StmtKind::If: {
    auto &If = static_cast<IfStmt &>(S);
    analyzeExpr(*If.Cond, Scope);
    analyzeStmt(*If.Then, Scope);
    if (If.Else)
      analyzeStmt(*If.Else, Scope);
    return;
  }
  case StmtKind::While: {
    auto &While = static_cast<WhileStmt &>(S);
    analyzeExpr(*While.Cond, Scope);
    analyzeStmt(*While.Body, Scope);
    return;
  }
  case StmtKind::Return: {
    auto &Ret = static_cast<ReturnStmt &>(S);
    if (Ret.Value)
      analyzeExpr(*Ret.Value, Scope);
    return;
  }
  case StmtKind::Print: {
    analyzeExpr(*static_cast<PrintStmt &>(S).Value, Scope);
    return;
  }
  case StmtKind::ExprStmt: {
    analyzeExpr(*static_cast<ExprStmt &>(S).E, Scope);
    return;
  }
  }
}

void SemaVisitor::analyzeExpr(Expr &E, FunctionScope &Scope) {
  switch (E.kind()) {
  case ExprKind::IntLiteral:
    return;
  case ExprKind::NameRef: {
    auto &Ref = static_cast<NameRefExpr &>(E);
    if (uint32_t Slot = Scope.lookup(Ref.Name); Slot != ~0u) {
      Ref.Binding = NameBinding::Local;
      Ref.Slot = Slot;
      return;
    }
    if (uint32_t Idx = findGlobal(Ref.Name); Idx != ~0u) {
      Ref.Binding = NameBinding::Global;
      Ref.Slot = Idx;
      return;
    }
    if (uint32_t Idx = findFunction(Ref.Name); Idx != ~0u) {
      Ref.Binding = NameBinding::Function;
      Ref.Slot = Idx;
      return;
    }
    if (Ref.Name == "peek" || Ref.Name == "poke") {
      // Handled at the enclosing CallExpr; a bare reference is an error.
      Diags.error(E.loc(),
                  format("built-in '%s' can only be called",
                         Ref.Name.c_str()));
      return;
    }
    Diags.error(E.loc(),
                format("use of undeclared name '%s'", Ref.Name.c_str()));
    return;
  }
  case ExprKind::FuncAddr: {
    auto &Addr = static_cast<FuncAddrExpr &>(E);
    uint32_t Idx = findFunction(Addr.Name);
    if (Idx == ~0u) {
      Diags.error(E.loc(),
                  format("'&%s' does not name a function",
                         Addr.Name.c_str()));
      return;
    }
    Addr.FunctionIndex = Idx;
    return;
  }
  case ExprKind::Unary: {
    analyzeExpr(*static_cast<UnaryExpr &>(E).Operand, Scope);
    return;
  }
  case ExprKind::Binary: {
    auto &Bin = static_cast<BinaryExpr &>(E);
    analyzeExpr(*Bin.LHS, Scope);
    analyzeExpr(*Bin.RHS, Scope);
    return;
  }
  case ExprKind::Assign: {
    auto &Assign = static_cast<AssignExpr &>(E);
    analyzeExpr(*Assign.Value, Scope);
    if (uint32_t Slot = Scope.lookup(Assign.Name); Slot != ~0u) {
      Assign.Binding = NameBinding::Local;
      Assign.Slot = Slot;
      return;
    }
    if (uint32_t Idx = findGlobal(Assign.Name); Idx != ~0u) {
      Assign.Binding = NameBinding::Global;
      Assign.Slot = Idx;
      return;
    }
    if (findFunction(Assign.Name) != ~0u) {
      Diags.error(E.loc(), format("cannot assign to function '%s'",
                                  Assign.Name.c_str()));
      return;
    }
    Diags.error(E.loc(), format("assignment to undeclared name '%s'",
                                Assign.Name.c_str()));
    return;
  }
  case ExprKind::Call: {
    auto &Call = static_cast<CallExpr &>(E);
    // Built-ins parse as calls; they apply unless a user declaration
    // shadows the name.
    if (Call.Callee->kind() == ExprKind::NameRef) {
      auto &Ref = static_cast<NameRefExpr &>(*Call.Callee);
      bool Shadowed = Scope.lookup(Ref.Name) != ~0u ||
                      findGlobal(Ref.Name) != ~0u ||
                      findFunction(Ref.Name) != ~0u;
      if (!Shadowed && (Ref.Name == "peek" || Ref.Name == "poke")) {
        Call.Builtin = Ref.Name == "peek" ? BuiltinKind::Peek
                                          : BuiltinKind::Poke;
        size_t Expected = Call.Builtin == BuiltinKind::Peek ? 1 : 2;
        if (Call.Args.size() != Expected)
          Diags.error(E.loc(),
                      format("'%s' takes %zu argument%s", Ref.Name.c_str(),
                             Expected, Expected == 1 ? "" : "s"));
        for (ExprPtr &Arg : Call.Args)
          analyzeExpr(*Arg, Scope);
        return;
      }
    }
    analyzeExpr(*Call.Callee, Scope);
    for (ExprPtr &Arg : Call.Args)
      analyzeExpr(*Arg, Scope);
    // A call through a bare function name is a direct call.
    if (Call.Callee->kind() == ExprKind::NameRef) {
      auto &Ref = static_cast<NameRefExpr &>(*Call.Callee);
      if (Ref.Binding == NameBinding::Function) {
        Call.IsDirect = true;
        Call.DirectFunctionIndex = Ref.Slot;
        const FunctionDecl &Callee = P.Functions[Ref.Slot];
        if (Callee.Params.size() != Call.Args.size())
          Diags.error(E.loc(),
                      format("call to '%s' with %zu arguments; it takes %zu",
                             Callee.Name.c_str(), Call.Args.size(),
                             Callee.Params.size()));
      }
    }
    return;
  }
  }
}

} // namespace

bool gprof::analyze(Program &P, DiagnosticEngine &Diags) {
  SemaVisitor V(P, Diags);
  return V.run();
}
