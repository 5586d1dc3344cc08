//===- parcgen/CodeGen.h - C++ proxy/skeleton emission ----------*- C++ -*-===//
//
// Part of the ParC# reproduction library.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// C++ code generation from a checked .pci module: exactly what the
/// paper's preprocessor produces, in this library's shapes --
///
///  - a *skeleton* per parallel class (the IO side): an abstract
///    CallHandler with one pure-virtual typed method per declared method,
///    each returning its result or an Error, and a generated handleCall
///    dispatcher that unmarshals arguments and marshals results (Fig. 6's
///    generated IO code).  It needs no runtime, so one class serves as a
///    SCOOPP parallel object and as a plain published remote object;
///  - a *proxy* per parallel class (the PO side, Fig. 4/5): a ProxyBase
///    subclass with one typed wrapper per method, taking its arguments by
///    value -- an agglomerated object's methods are called directly, the
///    arguments moved on; otherwise asynchronous methods forward through
///    invokeAsync (delegate-style, aggregation-aware) and synchronous ones
///    through invokeSyncTyped;
///  - a registration template binding the user's implementation subclass,
///    and the arguments its constructor takes, into a
///    ParallelClassRegistry (Fig. 6's factory registration).
///
//===----------------------------------------------------------------------===//

#ifndef PARCS_PARCGEN_CODEGEN_H
#define PARCS_PARCGEN_CODEGEN_H

#include "parcgen/Ast.h"

#include <string>

namespace parcs::pcc {

/// Emits the generated header for \p Module.  The module must have passed
/// analyzeModule.
std::string generateCpp(const ModuleDecl &Module);

} // namespace parcs::pcc

#endif // PARCS_PARCGEN_CODEGEN_H
