"""The compiler facade: front end + mid end pipelines.

:class:`P4Compiler` assembles the default pass pipeline (the one ``p4test``
exercises in the paper) and runs it through the :class:`PassManager`.
Back ends (:mod:`repro.targets`) consume the resulting mid-end program and
apply their own target-specific passes.
"""

from __future__ import annotations

from typing import List, Optional, Union

from repro.compiler.frontend import (
    FRONTEND_PASSES,
    TypeChecking,
    TypeCheckingPost,
)
from repro.compiler.midend import MIDEND_PASSES
from repro.compiler.options import CompilerOptions
from repro.compiler.pass_manager import CompilationResult, PassManager
from repro.compiler.passes import CompilerPass
from repro.p4 import ast
from repro.p4.parser import parse_program


class P4Compiler:
    """Compile P4 programs through the front- and mid-end pipelines."""

    def __init__(self, options: Optional[CompilerOptions] = None) -> None:
        self.options = options or CompilerOptions()

    # -- pipeline construction ------------------------------------------------

    def passes(self) -> List[CompilerPass]:
        """The default pipeline: front end, post-check, then the mid end."""

        pipeline: List[CompilerPass] = [cls() for cls in FRONTEND_PASSES]
        pipeline.append(TypeCheckingPost())
        pipeline.extend(cls() for cls in MIDEND_PASSES)
        return pipeline

    # -- compilation ------------------------------------------------------------

    def compile(self, program: Union[str, ast.Program]) -> CompilationResult:
        """Compile a program (AST or source text) and return all snapshots."""

        if isinstance(program, str):
            program = parse_program(program)
        manager = PassManager(self.passes(), self.options)
        return manager.run(program)


def compile_front_midend(
    program: Union[str, ast.Program], options: Optional[CompilerOptions] = None
) -> CompilationResult:
    """Convenience wrapper: compile with the default pipeline."""

    return P4Compiler(options).compile(program)
