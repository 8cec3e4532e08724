"""The BMv2-style back end ("simple switch").

The BMv2 back end is an *open* target: the lowered program is observable, so
Gauntlet can apply translation validation to every pass, and the STF-like
test framework (:mod:`repro.targets.stf`) exercises the executable with
concrete packets.

Seeded defects (see :mod:`repro.compiler.bugs`):

* ``bmv2_table_key_order_crash`` -- the lowering pass crashes on tables with
  more keys than actions,
* ``bmv2_wide_field_truncation`` -- the executable truncates writes to
  fields wider than 32 bits.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence

from repro.compiler import CompilerOptions, P4Compiler
from repro.compiler.errors import CompilerCrash, CompilerError
from repro.compiler.pass_manager import CompilationResult
from repro.p4 import ast
from repro.targets.execution import ConcreteInterpreter, TargetSemantics
from repro.targets.state import PacketState, SwitchState, TableEntry


@dataclass
class Bmv2Executable:
    """A compiled program loaded into the software switch."""

    program: ast.Program
    semantics: TargetSemantics
    #: The front/mid-end snapshots (the open part of the toolchain).
    compilation: CompilationResult
    #: Lazily-built interpreter shared by every packet: construction
    #: typechecks the program, and per-packet state lives in the packet.
    _interpreter: Optional[ConcreteInterpreter] = field(
        default=None, init=False, repr=False, compare=False
    )
    #: Persistent register/counter state -- survives across :meth:`process`
    #: calls, exactly like a running switch (see the stateful-support
    #: section of the backend-author contract in ``targets/README.md``).
    _switch_state: Optional[SwitchState] = field(
        default=None, init=False, repr=False, compare=False
    )

    def process(self, packet: PacketState, entries: Sequence[TableEntry] = ()) -> PacketState:
        """Run one packet through the switch and return the output packet."""

        if self._interpreter is None:
            self._interpreter = ConcreteInterpreter(self.program, self.semantics)
        return self._interpreter.run(
            packet, entries, switch_state=self.switch_state()
        )

    def switch_state(self) -> SwitchState:
        """The live register/counter state (lazily created at power-on)."""

        if self._switch_state is None:
            self._switch_state = SwitchState.for_program(self.program)
        return self._switch_state

    def reset_state(self) -> None:
        """Power-cycle the switch: every register/counter cell back to zero."""

        if self._switch_state is not None:
            self._switch_state.reset()


class Bmv2Target:
    """Compile P4 programs for the BMv2 reference switch."""

    name = "bmv2"

    def __init__(self, options: Optional[CompilerOptions] = None) -> None:
        self.options = options or CompilerOptions(target=self.name)

    # -- compilation -----------------------------------------------------------

    def compile(self, program) -> Bmv2Executable:
        """Run the shared front/mid end, then the BMv2 lowering checks."""

        return self.link(P4Compiler(self.options).compile(program))

    def link(self, result: CompilationResult) -> Bmv2Executable:
        """Lower an already-compiled front/mid-end result.

        The campaign engine compiles the shared front/mid end once per
        program and hands the same ``CompilationResult`` to every back
        end, so the lowering must only *read* it.  Raises the recorded crash/rejection, exactly as
        :meth:`compile` does.
        """

        if result.crashed:
            raise result.crash
        if result.rejected:
            raise result.error
        lowered = result.final_program
        self._lower(lowered)
        semantics = TargetSemantics(
            name=self.name,
            truncate_wide_fields=self.options.bug_enabled("bmv2_wide_field_truncation"),
        )
        return Bmv2Executable(lowered, semantics, result)

    def compile_with_snapshots(self, program) -> CompilationResult:
        """Expose the per-pass snapshots (BMv2 is an open back end)."""

        return P4Compiler(self.options).compile(program)

    # -- lowering -----------------------------------------------------------------

    def _lower(self, program: ast.Program) -> None:
        """Back-end specific validation of the mid-end output."""

        for control in program.controls():
            tables = [
                local for local in control.locals if isinstance(local, ast.TableDeclaration)
            ]
            for table in tables:
                if self.options.bug_enabled("bmv2_table_key_order_crash") and len(
                    table.keys
                ) > max(1, len(table.actions)):
                    raise CompilerCrash(
                        f"table {table.name!r}: key/action invariant violated "
                        f"({len(table.keys)} keys, {len(table.actions)} actions)",
                        pass_name="Bmv2Lowering",
                        signature="bmv2-key-action-invariant",
                    )
                for key in table.keys:
                    if key.match_kind not in ("exact",):
                        raise CompilerError(
                            f"BMv2 subset only supports exact matches, got "
                            f"{key.match_kind!r} in table {table.name!r}"
                        )
