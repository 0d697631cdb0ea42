"""Reachability of src: every top-level function and class is read, by
name, on some path from the command line (cli.main, cli.entry) or from
what a module runs on import, but for the names of KEPT."""

import ast
import pathlib

import gkzeuler

# the functions no command reaches, each kept for a caller outside src
KEPT = {
    # perfbench/run.py reads tracer.calls["intlinalg.rat_inverse"] and
    # tracer.calls["intlinalg.det_bareiss"], a KeyError without them
    "rat_inverse", "det_bareiss",
    # perfbench/tests/test_tracer.py checks that the tracer leaves it alone
    "graded_lex_vectors",
    # a relation check with no right-hand side (ROADMAP.md, item 11)
    "sample_point_in_UT",
    # the full period matrix of the hyperplane and confluent families
    # (ROADMAP.md, items 8 and 12)
    "matsumoto_confluent", "period_relation_matrix_check",
}


def _reads(node):
    """The names node reads: loaded names and loaded attributes."""
    for n in ast.walk(node):
        if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load):
            yield n.id
        elif isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Load):
            yield n.attr


def test_every_src_function_is_reached_or_kept():
    # The walk goes by name: a top-level function or class is reached when
    # a reached body, or a statement run on import, reads its name.  So it
    # never flags live code, but a local or attribute of the same name can
    # hide dead code: a top-level gamma() would count as reached while the
    # cases of intersection read their local named gamma.  The error
    # classes are outside the check.
    defs, todo = {}, ["main", "entry"]
    for path in sorted(pathlib.Path(gkzeuler.__file__).parent.glob("*.py")):
        if path.name == "errors.py":
            continue
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defs.setdefault(node.name, []).append(node)
                # decorators run on import
                todo += (name for d in node.decorator_list
                         for name in _reads(d))
            else:
                todo += _reads(node)
    reached = set()
    while todo:
        name = todo.pop()
        if name in defs and name not in reached:
            reached.add(name)
            for node in defs[name]:
                todo += _reads(node)
    unreached = set(defs) - reached
    assert unreached == KEPT, sorted(unreached ^ KEPT)
