"""Which statements of ``src/varnamer`` real traffic never reaches.

    PYTHONPATH=src python tests/traffic_probe.py

Traces the package with ``sys.settrace`` while it runs two kinds of
traffic: both benchmark workloads at their tiny size, and every CLI
command on a 40-function toy corpus (``build-corpus`` through ``sweep``,
then ``gradcheck``). It then prints, per function, the statements that
never ran. Tests do not count as traffic, so a statement listed here is
reached by tests alone, or by nothing: a candidate for deletion, or a
guard that no input has tripped. The package is imported under the
trace, so a function that runs at import counts as reached; module and
class bodies themselves are not judged. It runs in well under a minute;
pytest does not collect it.
"""

from __future__ import annotations

import ast
import contextlib
import io
import json
import logging
import os
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SOURCE = ROOT / "src" / "varnamer"
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests"), str(ROOT / "bench")]
PREFIX = str(SOURCE) + os.sep


def _traced_lines(run) -> set[tuple[str, int]]:
    """The (file, line) pairs of ``src/varnamer`` that ``run()`` executes."""
    seen: set[tuple[str, int]] = set()

    def local(frame, event, arg):
        if event == "line":
            seen.add((frame.f_code.co_filename, frame.f_lineno))
        return local

    def global_(frame, event, arg):
        return local if frame.f_code.co_filename.startswith(PREFIX) else None

    sys.settrace(global_)
    try:
        run()
    finally:
        sys.settrace(None)
    return seen


def _benchmark_traffic(work: str) -> None:
    import bench_workloads as bw

    for name in bw.WORKLOADS:
        bw.run(name, seed=1, seconds=0, trace=False, size="tiny",
               out_dir=os.path.join(work, "bench"))


def _cli_traffic(work: str) -> None:
    import toycorpus

    from varnamer import cli, corpus, training

    def call(*argv: str) -> str:
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = cli.run(list(argv))
        if code != 0:
            raise SystemExit(f"varnamer {' '.join(argv)} exited {code}")
        return out.getvalue()

    functions = os.path.join(work, "functions.jsonl")
    with open(functions, "w", encoding="utf-8") as fh:
        for code in toycorpus.generate_functions(seed=55, count=40):
            fh.write(json.dumps({"code": code}) + "\n")
    config = os.path.join(work, "train.cfg")
    with open(config, "w", encoding="utf-8") as fh:
        fh.write(training.TrainConfig(max_epochs=2, batch_size=8, max_seq_len=128).to_text())
    data = os.path.join(work, "corpus.jsonl")
    vocab = os.path.join(work, "vocab.txt")
    model = os.path.join(work, "model.rfbt")

    call("--print-config")
    call("build-corpus", "--data", functions, "--out", work,
         "--validation-fraction", "0.2", "--test-fraction", "0.2")
    call("train-tokenizer", "--data", data, "--out", work, "--vocab-size", "400")
    call("pretrain", "--data", data, "--vocab", vocab, "--config", config,
         "--out", os.path.join(work, "pt"), "--layers", "1", "--hidden-dim", "32",
         "--heads", "4", "--ffn-dim", "64", "--max-seq-len", "128")
    call("finetune-lp", "--data", data, "--vocab", vocab, "--config", config,
         "--model", os.path.join(work, "pt", "pretrain-final.rfbt"),
         "--out", os.path.join(work, "lp"))
    call("finetune-tg", "--data", data, "--vocab", vocab, "--config", config,
         "--model", os.path.join(work, "lp", "finetune-lp-final.rfbt"),
         "--out", os.path.join(work, "tg"), "--lambda-bot", "0.5")
    os.replace(os.path.join(work, "tg", "finetune-tg-final.rfbt"), model)
    call("evaluate", "--data", data, "--model", model, "--vocab", vocab,
         "--out", os.path.join(work, "eval"))
    record = corpus.load_corpus(data)[0]
    code_path = os.path.join(work, "function.java")
    with open(code_path, "w", encoding="utf-8") as fh:
        fh.write(record.code_before)
    call("suggest", "--model", model, "--vocab", vocab, "--code", code_path,
         "--var", record.variable_before)
    call("baseline-eval", "--data", data, "--train-data", data, "--model", model,
         "--vocab", vocab, "--out", os.path.join(work, "baseline"))
    call("sweep", "--data", data, "--model", model, "--vocab", vocab, "--config", config,
         "--param", "lmax", "--values", "3,4", "--out", os.path.join(work, "sweep"))
    call("gradcheck", "--seed", "0", "--coords", "5")


def _statement_lines(stmt: ast.stmt) -> range:
    """The lines whose execution shows that ``stmt`` ran: its decorators
    and header for a compound statement, all of it for a simple one."""
    start = min([stmt.lineno] + [d.lineno for d in getattr(stmt, "decorator_list", [])])
    body = getattr(stmt, "body", None)
    end = body[0].lineno - 1 if body else stmt.end_lineno
    return range(start, max(start, end) + 1)


def _statements(body: list[ast.stmt]):
    """The statements of a function body that compile to code, nested
    blocks included, nested functions' and classes' bodies excluded."""
    for i, stmt in enumerate(body):
        docstring = (i == 0 and isinstance(stmt, ast.Expr)
                     and isinstance(stmt.value, ast.Constant)
                     and isinstance(stmt.value.value, str))
        if docstring or isinstance(stmt, (ast.Global, ast.Nonlocal)):
            continue
        yield stmt
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            continue
        for field in ("body", "orelse", "finalbody"):
            yield from _statements(getattr(stmt, field, []))
        for handler in getattr(stmt, "handlers", []):
            yield handler
            yield from _statements(handler.body)


def _functions(tree: ast.Module):
    """(qualified name, node) of every function in a module, methods and
    nested functions included."""
    stack = [(node, "") for node in reversed(tree.body)]
    while stack:
        node, prefix = stack.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield prefix + node.name, node
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            inner = prefix + node.name + "."
            stack.extend((child, inner) for child in reversed(node.body))
        else:
            stack.extend((child, prefix) for child in reversed(
                [c for c in ast.iter_child_nodes(node) if isinstance(c, ast.stmt)]))


def unreached(seen: set[tuple[str, int]]) -> dict[str, list[tuple[int, str]]]:
    """Per ``module.function``, the (line, source) of each statement no
    traced line falls in; functions that never ran are listed whole."""
    report: dict[str, list[tuple[int, str]]] = {}
    for path in sorted(SOURCE.glob("*.py")):
        text = path.read_text(encoding="utf-8")
        lines = text.splitlines()
        hit = {line for file, line in seen if file == str(path)}
        for name, node in _functions(ast.parse(text)):
            missed = [(stmt.lineno, lines[stmt.lineno - 1].strip())
                      for stmt in _statements(node.body)
                      if not hit.intersection(_statement_lines(stmt))]
            if missed:
                report[f"{path.stem}.{name}"] = missed
    return report


def main() -> int:
    # cli.run's basicConfig adds no handler once the root logger has one
    logging.basicConfig(stream=sys.stderr, level=logging.WARNING)
    with tempfile.TemporaryDirectory(prefix="traffic-") as work:
        seen = _traced_lines(lambda: (_benchmark_traffic(work), _cli_traffic(work)))
    report = unreached(seen)
    for name, missed in report.items():
        print(f"{name}:")
        for line, source in missed:
            print(f"  {line:5d}  {source}")
    total = sum(len(missed) for missed in report.values())
    print(f"{total} unreached statements in {len(report)} functions")
    return 0


if __name__ == "__main__":
    sys.exit(main())
