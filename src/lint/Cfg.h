//===- lint/Cfg.h - Control-flow graphs over the token stream ---*- C++ -*-===//
//
// Part of the ParC# reproduction library.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Per-function control-flow graphs built directly from the CppScanner
/// token stream -- the middle layer of parcs-lint v2.  The builder performs
/// a recursive-descent pass over each function body, recognising the
/// statement structure a compiler front end would (if/else, loops, switch,
/// break/continue, return), and lowers it to basic blocks of *events*: the
/// handful of facts the dataflow rules consume.
///
///  - Decl / Use / Assign of "risky" locals (references, string_views,
///    spans, iterators -- anything that can dangle while a coroutine is
///    suspended), with declaration-site classification: which local roots
///    the storage (for frame-locality reasoning) and whether the declared
///    type is an audited stable runtime service;
///  - Suspend for every suspension point (`co_await`, `co_yield`, and the
///    scheduler-call spellings), placed *after* the events of the awaited
///    operand -- `co_await Proxy->flush()` evaluates the expression before
///    the coroutine parks, and the CFG says so;
///  - RootMutate when a frame-local container that roots a risky reference
///    is structurally modified (push_back/erase/clear/...).
///
/// Call sites are collected per function (callee, qualifier, argument token
/// range) for the tree-wide call graph in Analysis.h.  Lambdas and local
/// classes nested inside a body are extracted as separate functions; their
/// tokens do not leak into the enclosing CFG.
///
/// Like the scanner, the builder never fails: malformed input degrades to
/// straight-line blocks, never to a crash or an unterminated loop.
///
//===----------------------------------------------------------------------===//

#ifndef PARCS_LINT_CFG_H
#define PARCS_LINT_CFG_H

#include "lint/CppScanner.h"

#include <string>
#include <vector>

namespace parcs::lint {

enum class CfgEventKind {
  Decl,       ///< A risky local comes into being (re-executed per loop pass).
  Use,        ///< A name read of a risky local.
  Assign,     ///< Whole-object reassignment of a risky local (revalidates it).
  RootMutate, ///< Structural mutation of the container rooting a risky local.
  Suspend,    ///< The enclosing coroutine may park here.
};

struct CfgEvent {
  CfgEventKind Kind = CfgEventKind::Suspend;
  int DeclId = -1; ///< Decl/Use/Assign/RootMutate target; -1 for Suspend.
  int Line = 0;
  int Col = 0;
};

/// One risky local declaration, with everything the suspension rule needs
/// to judge its uses.
struct CfgDecl {
  std::string Name;
  std::string What; ///< "reference", "string_view", "span", "iterator".
  int Line = 0;
  int Col = 0;
  /// True when the initializer is an element-access chain rooted at a local
  /// value (or by-value parameter) of this function: the referent lives in
  /// the coroutine frame, which survives suspension.  Such a reference only
  /// dangles if the root container is structurally mutated in between --
  /// which the CFG tracks as RootMutate events.
  bool FrameLocalRoot = false;
  /// Root variable name (for diagnostics), when FrameLocalRoot.
  std::string Root;
  /// True when the declared type is one of LintConfig::SuspensionStableTypes
  /// (an audited runtime service that outlives every coroutine); such decls
  /// are not risky at all and produce no events.
  bool Stable = false;
};

struct CfgBlock {
  std::vector<CfgEvent> Events;
  std::vector<int> Succs;
};

/// One call site, for the tree-wide call graph.
struct CfgCallSite {
  std::string Callee;    ///< Unqualified callee name ("flush", "complete").
  std::string Qualifier; ///< "trace" for trace::complete, "std" for std::time.
  std::string Receiver;  ///< "Proxy" for Proxy->flush(); "this", or empty.
  bool Member = false;   ///< Called through '.' or '->'.
  int Line = 0;
  int Col = 0;
  /// Token range of the argument list (exclusive of the parens), as indices
  /// into the file's token vector.
  size_t ArgsBegin = 0;
  size_t ArgsEnd = 0;
};

struct FunctionCfg {
  std::string Name;  ///< "transfer"; "<lambda>" for unnamed closures.
  std::string Scope; ///< "Network" for Network::send; empty otherwise.
  int Line = 0;      ///< Line of the body's opening brace.
  size_t BodyBegin = 0; ///< Token index of the opening '{'.
  size_t BodyEnd = 0;   ///< Token index one past the closing '}'.
  std::vector<CfgBlock> Blocks; ///< Block 0 is the entry; 1 is the exit.
  std::vector<CfgDecl> Decls;
  std::vector<CfgCallSite> Calls;
  bool HasSuspension = false;

  std::string qualifiedName() const {
    return Scope.empty() ? Name : Scope + "::" + Name;
  }
};

/// Knobs the builder needs (a slice of LintConfig, kept separate so the CFG
/// layer does not depend on the rule engine's header).
struct CfgConfig {
  /// Type names whose references are audited as stable across suspension.
  std::vector<std::string> StableTypes;
};

/// Extracts every function (free, member, lambda, local-class method) from
/// a scanned file and builds its CFG.  Token indices in the result refer to
/// \p Toks, which must outlive the returned graphs.
std::vector<FunctionCfg> buildFileCfgs(const std::vector<CppToken> &Toks,
                                       const CfgConfig &Config);

/// Deterministic text rendering of one CFG (for --dump-cfg and tests).
std::string renderCfg(const FunctionCfg &Fn, std::string_view File);

} // namespace parcs::lint

#endif // PARCS_LINT_CFG_H
