"""Source hygiene: every module reads each name it imports, and every definition
in src/kspectra is reached from src/ or perfbench/, or is a listed oracle."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _unused_imports(path: Path) -> list[str]:
    """Names bound by an import in path that no expression in it reads."""
    tree = ast.parse(path.read_text(), filename=str(path))
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for a in node.names:
                bound[a.asname or a.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for a in node.names:
                bound[a.asname or a.name] = node.lineno
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
    return [f"{path.relative_to(ROOT)}:{line} {name}"
            for name, line in bound.items() if name not in read]


def test_no_unused_imports():
    # __init__.py imports only to re-export
    paths = [p for p in sorted((ROOT / "src" / "kspectra").glob("*.py")) if p.name != "__init__.py"]
    paths += sorted((ROOT / "tests").glob("*.py"))
    assert paths
    assert [u for p in paths for u in _unused_imports(p)] == []


#: definitions in src/kspectra that only the tests read, each with the reason it stays
ORACLES = {
    "FieldCtx.char_poly": "q is a characteristic-polynomial coefficient: the oracle of q_eval",
    "FieldCtx.frobenius_table": "squaring on the whole field, checked against FieldCtx.sqr",
    "TruthTable.identity": "a known permutation for the truth-table oracles",
    "TruthTable.inverse": "x -> x^-1 as a truth table: the Walsh route to the Kloosterman spectrum",
    "walsh": "pointwise Walsh sum, the oracle of walsh_row",
    "walsh_row": "Walsh butterfly on a truth table: the third route to the Kloosterman spectrum",
    "kloosterman": "pointwise Kloosterman sum, the oracle of kloosterman_spectrum",
    "q_eval": "definitional sum of q, the oracle of q_table",
    "classify": "form type from a fresh zero count, the oracle of restrict's type",
    "kernel": "kernel of one map, the oracle of kernel_intersection",
    "image_basis": "column space, checked against the annihilator of the adjoint's kernel",
    "is_permutation": "bijectivity of a truth table, the oracle of perm_general_spectral",
    "perm_general_spectral": "Walsh criterion for any truth table, checked against perm_spectral",
    "kernel_bound_applies": "the paper's kernel-dimension theorem, to become a check on hits",
    "zero_map": "test-data constructor",
    "scalar_map": "test-data constructor",
    "random_bijective_map": "test-data constructor",
    "SubspaceBasis.contains": "test-data membership check",
    "SubspaceBasis.span_set": "test-data span as a set",
}


def _definitions(path: Path) -> list[str]:
    """Module-level functions and classes of path, and methods as Class.method."""
    out = []
    for node in ast.parse(path.read_text(), filename=str(path)).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            out.append(node.name)
        if isinstance(node, ast.ClassDef):
            out += [f"{node.name}.{f.name}" for f in node.body
                    if isinstance(f, ast.FunctionDef)
                    and not (f.name.startswith("__") and f.name.endswith("__"))]
    return out


def _names_read(path: Path, perfbench: bool) -> set[str]:
    """Names and attributes path reads.  perfbench reaches kspectra only through
    module attributes, so there count attributes and string constants (its tracer
    rebinds attributes it names as strings), but no bare names: a local that
    shares a definition's name does not reach it."""
    out = set()
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            if not perfbench:
                out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
        elif perfbench and isinstance(node, ast.Constant) and isinstance(node.value, str):
            out.add(node.value)
    return out


def test_every_definition_is_reached_or_an_oracle():
    # by name: a definition counts as reached once src/ reads its name or perfbench/
    # reads it as an attribute or a string, so a same-named local in src/ hides it
    src = sorted((ROOT / "src" / "kspectra").glob("*.py"))
    read = set().union(*(_names_read(p, False) for p in src),
                       *(_names_read(p, True) for p in sorted((ROOT / "perfbench").rglob("*.py"))))
    defined = [d for p in src for d in _definitions(p)]
    assert sorted(set(ORACLES) - set(defined)) == []  # no stale allowlist entry
    unreached = [d for d in defined if d.split(".")[-1] not in read and d not in ORACLES]
    assert unreached == []
