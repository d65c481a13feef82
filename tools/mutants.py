"""Mutation probe: which one-line changes to ``src/galimech`` go unnoticed.

Run from anywhere, on every module or on the named ones:

    python3 tools/mutants.py
    python3 tools/mutants.py homogeneous.py verify.py

A name that is not a module of ``src/galimech`` is an error (exit 2).
Each mutant makes one change to one module:

- a statement in a function body becomes ``pass`` (docstrings and
  ``pass`` itself excepted);
- ``+`` and ``-`` swap, as do ``*`` and ``/``, ``<`` and ``<=``, and
  ``>`` and ``>=`` (augmented assignments included);
- a unary minus is dropped;
- in a string that is not a docstring, such as a source template that a
  module compiles, a `` + `` and a `` - `` swap, as do a `` * `` and a
  `` / ``, and a ``-`` before a name or a parenthesis is dropped; text
  after a ``#`` on a line of the string is a comment and left alone.

A mutant is killed by ``verify`` when a 50-trial ``run_checks`` at seed
42 fails to run or differs from the unmutated tree's in any suite's
trial count, gate or worst error (compared by ``float.hex``).  Survivors
then run the whole test suite with ``pytest -x``; any failure, or a
timeout, kills them there.  The rest are printed with module, line and
change, after a per-module table of killed/total.

Every mutant runs in a copy of the repository under a temporary
directory, with bytecode caching off and the module rewritten through
``ast.unparse``.  The unmutated tree is first run the same way, with
every module round-tripped through ``ast.unparse``; the probe stops if
that baseline fails.  Two mutants run at a time, each child limited in
time and address space, and so is any process it forks.  A full run
takes about an hour on 2 vCPUs.
Standard library only; the test suite does not collect this file.
"""

from __future__ import annotations

import ast
import contextlib
import os
import queue
import re
import resource
import shutil
import signal
import subprocess
import sys
import tempfile
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = Path("src") / "galimech"
SKIPPED = shutil.ignore_patterns(".git", "__pycache__", ".hypothesis", ".pytest_cache",
                                 "out")
WORKERS = 2
VERIFY_TIMEOUT_S = 120
TESTS_TIMEOUT_S = 900
ADDRESS_SPACE_BYTES = 4 << 30

VERIFY = ("from galimech.verify import run_checks\n"
          "for r in run_checks(trials=50, seed=42):\n"
          "    print(r.name, r.trials, r.tolerance, r.max_error.hex())\n")
PYTEST = ("-m", "pytest", "-x", "-q", "-p", "no:cacheprovider")

SWAPS = {ast.Add: ast.Sub, ast.Sub: ast.Add, ast.Mult: ast.Div, ast.Div: ast.Mult,
         ast.Lt: ast.LtE, ast.LtE: ast.Lt, ast.Gt: ast.GtE, ast.GtE: ast.Gt}
SYMBOLS = {ast.Add: "+", ast.Sub: "-", ast.Mult: "*", ast.Div: "/",
           ast.Lt: "<", ast.LtE: "<=", ast.Gt: ">", ast.GtE: ">="}
# In strings: a binary operator between spaces, or a unary minus.
STRING_OPS = re.compile(r" ([-+*/]) |(?<=[\s(,])(-)(?=[\w(])")
STRING_SWAPS = {"+": "-", "-": "+", "*": "/", "/": "*"}


class Mutant(NamedTuple):
    module: str
    index: int
    line: int
    change: str


def _is_docstring(node: ast.stmt) -> bool:
    return (isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant)
            and isinstance(node.value.value, str))


def _docstrings(tree: ast.Module) -> set[int]:
    """Ids of the docstring constants of the module, its classes and functions."""
    return {id(node.body[0].value) for node in ast.walk(tree)
            if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                                 ast.AsyncFunctionDef))
            and node.body and _is_docstring(node.body[0])}


def _body_statements(tree: ast.Module):
    """Statements inside function bodies, at any depth, once each."""
    seen = set()
    for fn in ast.walk(tree):
        if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            for node in ast.walk(fn):
                if (node is not fn and isinstance(node, ast.stmt) and id(node) not in seen
                        and not isinstance(node, ast.Pass) and not _is_docstring(node)):
                    seen.add(id(node))
                    yield node


def _sites(tree: ast.Module):
    """Every (node, slot, change) one mutant can make, in a fixed order.

    ``slot`` is None for a whole statement, ``"op"`` for a binary,
    augmented or unary operator, a comparison's operator index, and
    ``(start, end, new)`` for a string's characters ``start:end``.
    """
    for node in _body_statements(tree):
        yield node, None, f"{type(node).__name__} -> pass"
    docstrings = _docstrings(tree)
    for node in ast.walk(tree):
        if (isinstance(node, ast.Constant) and isinstance(node.value, str)
                and id(node) not in docstrings):
            for match in STRING_OPS.finditer(node.value):
                if "#" in node.value[node.value.rfind("\n", 0, match.start()) + 1:
                                     match.start()]:
                    continue  # a comment in the template
                if match.group(1):
                    old = match.group(1)
                    yield (node, (match.start(1), match.end(1), STRING_SWAPS[old]),
                           f"'{old}' -> '{STRING_SWAPS[old]}' in a string")
                else:
                    yield (node, (match.start(2), match.end(2), ""),
                           "unary '-' dropped in a string")
        if isinstance(node, (ast.BinOp, ast.AugAssign)) and type(node.op) in SWAPS:
            old = type(node.op)
            yield node, "op", f"{SYMBOLS[old]} -> {SYMBOLS[SWAPS[old]]}"
        elif isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.USub):
            yield node, "op", "unary - dropped"
        elif isinstance(node, ast.Compare):
            for i, op in enumerate(node.ops):
                if type(op) in SWAPS:
                    yield node, i, f"{SYMBOLS[type(op)]} -> {SYMBOLS[SWAPS[type(op)]]}"


def mutants(module: str, source: str) -> list[Mutant]:
    """Every mutant of ``module``; one in a string gets the line it changes."""
    return [Mutant(module, i, node.end_lineno - node.value[slot[0]:].count("\n")
                   if isinstance(node, ast.Constant) else node.lineno, change)
            for i, (node, slot, change) in enumerate(_sites(ast.parse(source)))]


def mutated_source(source: str, index: int) -> str:
    """``source`` with mutant ``index`` applied, rewritten by ``ast.unparse``."""
    tree = ast.parse(source)
    for i, (node, slot, _) in enumerate(_sites(tree)):
        if i == index:
            break
    if slot is None:
        _replace(tree, node, ast.copy_location(ast.Pass(), node))
    elif isinstance(node, ast.Constant):
        start, end, new = slot
        node.value = node.value[:start] + new + node.value[end:]
    elif isinstance(node, ast.Compare):
        node.ops[slot] = SWAPS[type(node.ops[slot])]()
    elif isinstance(node, ast.UnaryOp):
        _replace(tree, node, node.operand)
    else:
        node.op = SWAPS[type(node.op)]()
    return ast.unparse(ast.fix_missing_locations(tree))


def _replace(tree: ast.AST, target: ast.AST, by: ast.AST):
    """Put ``by`` where ``target`` sits in ``tree``."""
    for parent in ast.walk(tree):
        for field, value in ast.iter_fields(parent):
            if value is target:
                setattr(parent, field, by)
                return
            if isinstance(value, list):
                for i, item in enumerate(value):
                    if item is target:
                        value[i] = by
                        return
    raise LookupError(f"{type(target).__name__} not found")


def _run(tree: Path, args, timeout: float) -> tuple[int | None, str]:
    """Exit code and stdout of a child in ``tree``; None on a timeout.

    The child leads a session of its own, which is killed as a whole once
    the child ends or times out: a process it forked, such as the CSV
    writer of ``simulate``, goes with it, even one a mutant left waiting
    forever.  Its stdout goes to a file, so such a process cannot hold
    the probe up either.
    """
    env = dict(os.environ, PYTHONPATH=str(tree / "src"), PYTHONDONTWRITEBYTECODE="1")
    with tempfile.TemporaryFile("w+") as out:
        with subprocess.Popen([sys.executable, *args], cwd=tree, env=env, stdout=out,
                              stderr=subprocess.DEVNULL, start_new_session=True) as child:
            try:
                code = child.wait(timeout=timeout)
            except subprocess.TimeoutExpired:
                code = None
            finally:
                with contextlib.suppress(ProcessLookupError):
                    os.killpg(child.pid, signal.SIGKILL)
                shutil.rmtree(tree / ".hypothesis", ignore_errors=True)
        out.seek(0)
        return code, "" if code is None else out.read()


class Probe:
    def __init__(self, work: Path, sources: dict[str, str]):
        self.sources = sources
        self.trees: queue.Queue[Path] = queue.Queue()
        for n in range(WORKERS):
            self.trees.put(shutil.copytree(ROOT, work / f"tree{n}", ignore=SKIPPED))
        self.reference = ""

    def _with(self, mutant: Mutant, check):
        tree = self.trees.get()
        path = tree / PACKAGE / mutant.module
        try:
            path.write_text(mutated_source(self.sources[mutant.module], mutant.index),
                            encoding="utf-8")
            return check(tree)
        finally:
            path.write_text(self.sources[mutant.module], encoding="utf-8")
            self.trees.put(tree)

    def verify_kills(self, mutant: Mutant) -> bool:
        return self._with(mutant, lambda tree: _run(
            tree, ("-c", VERIFY), VERIFY_TIMEOUT_S) != (0, self.reference))

    def tests_kill(self, mutant: Mutant) -> bool:
        return self._with(mutant, lambda tree: _run(
            tree, PYTEST, TESTS_TIMEOUT_S)[0] != 0)

    def baseline(self) -> bool:
        """Run verify and the tests once on the round-tripped, unmutated tree."""
        tree = self.trees.get()
        try:
            for module, source in self.sources.items():
                (tree / PACKAGE / module).write_text(ast.unparse(ast.parse(source)),
                                                     encoding="utf-8")
            code, self.reference = _run(tree, ("-c", VERIFY), VERIFY_TIMEOUT_S)
            ok = code == 0 and _run(tree, PYTEST, TESTS_TIMEOUT_S)[0] == 0
        finally:
            for module, source in self.sources.items():
                (tree / PACKAGE / module).write_text(source, encoding="utf-8")
            self.trees.put(tree)
        return ok


def _survivors(pool: ThreadPoolExecutor, kills, candidates: list[Mutant],
               stage: str) -> list[Mutant]:
    left = []
    for n, (mutant, killed) in enumerate(zip(candidates, pool.map(kills, candidates)), 1):
        if not killed:
            left.append(mutant)
        if n % 50 == 0 or n == len(candidates):
            print(f"{stage}: {n}/{len(candidates)} run, {len(left)} survive",
                  file=sys.stderr, flush=True)
    return left


def main(names: list[str]) -> int:
    package = ROOT / PACKAGE
    sources = {path.name: path.read_text(encoding="utf-8")
               for path in sorted(package.glob("*.py"))}
    unknown = [name for name in names if name not in sources]
    if unknown:
        print(f"error: not a module of {PACKAGE}: {', '.join(unknown)}", file=sys.stderr)
        return 2
    probed = [module for module in sources if not names or module in names]
    everything = [m for module in probed for m in mutants(module, sources[module])]
    # Inherited by every child: a mutant that allocates without bound
    # fails with MemoryError instead of exhausting the machine.
    resource.setrlimit(resource.RLIMIT_AS, (ADDRESS_SPACE_BYTES, ADDRESS_SPACE_BYTES))
    with tempfile.TemporaryDirectory(prefix="galimech-mutants-") as work:
        probe = Probe(Path(work), sources)
        if not probe.baseline():
            print("error: the unmutated tree fails verify or the tests", file=sys.stderr)
            return 1
        with ThreadPoolExecutor(WORKERS) as pool:
            past_verify = _survivors(pool, probe.verify_kills, everything, "verify")
            survivors = _survivors(pool, probe.tests_kill, past_verify, "pytest")

    print(f"{'module':<20}{'mutants':>8}{'verify':>8}{'pytest':>8}{'killed':>10}"
          f"{'survive':>8}")
    for name, keep in [(module, lambda m, module=module: m.module == module)
                       for module in probed] + [("total", lambda m: True)]:
        total, past, left = (sum(map(keep, group))
                             for group in (everything, past_verify, survivors))
        print(f"{name:<20}{total:>8}{total - past:>8}{past - left:>8}"
              f"{f'{total - left}/{total}':>10}{left:>8}")
    for mutant in survivors:
        print(f"survivor {mutant.module}:{mutant.line} {mutant.change}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
