"""Only :mod:`repro.seeds` decides a seed lane.

Three :mod:`ast` checks keep it that way:

* no module under ``src/`` but ``repro/seeds.py`` calls the builtin
  ``hash()``, whose value for a ``str`` changes from process to process;
* no module under ``src/repro/serve`` binds a module-level integer
  constant whose name contains ``SEED``;
* no module under ``src/repro/serve`` does arithmetic on a ``seed``
  (``seed + i``, ``pop.seed + 7_919 * k``): lanes come from the lane
  functions.
"""

import ast
import pathlib

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SERVE = SRC / "repro" / "serve"
LANES = SRC / "repro" / "seeds.py"


def hash_calls(tree: ast.AST) -> list:
    """Lines that call the builtin ``hash``."""
    return [
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id == "hash"
    ]


def seed_constants(tree: ast.Module) -> list:
    """Module-level names containing ``SEED`` bound to an integer literal."""
    found = []
    for node in tree.body:
        if isinstance(node, ast.Assign):
            targets, value = node.targets, node.value
        elif isinstance(node, ast.AnnAssign) and node.value is not None:
            targets, value = [node.target], node.value
        else:
            continue
        leaves = [
            sub for sub in ast.walk(value)
            if isinstance(sub, (ast.Constant, ast.Name, ast.Attribute, ast.Call))
        ]
        if leaves and all(
            type(leaf) is ast.Constant and type(leaf.value) is int
            for leaf in leaves
        ):
            found += [
                t.id for t in targets
                if isinstance(t, ast.Name) and "SEED" in t.id.upper()
            ]
    return found


def _is_seed(node: ast.AST) -> bool:
    return (isinstance(node, ast.Name) and node.id == "seed") or (
        isinstance(node, ast.Attribute) and node.attr == "seed"
    )


def seed_arithmetic(tree: ast.AST) -> list:
    """Lines that add, subtract or multiply onto a ``seed``."""
    return [
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, ast.BinOp)
        and (_is_seed(node.left) or _is_seed(node.right))
    ]


def _parse(path: pathlib.Path) -> ast.Module:
    return ast.parse(path.read_text())


def test_only_the_lane_module_calls_hash():
    offenders = [
        f"{path.relative_to(ROOT)}:{line}"
        for path in sorted(SRC.rglob("*.py"))
        if path != LANES
        for line in hash_calls(_parse(path))
    ]
    assert offenders == []


def test_serve_keeps_no_seed_constants_or_seed_arithmetic():
    offenders = []
    for path in sorted(SERVE.rglob("*.py")):
        tree = _parse(path)
        name = path.relative_to(ROOT)
        offenders += [f"{name}: {c}" for c in seed_constants(tree)]
        offenders += [f"{name}:{line}" for line in seed_arithmetic(tree)]
    assert offenders == []


def test_the_checks_see_each_kind_of_offence():
    tree = ast.parse(
        "_SEED_OFFSET = 100_003\n"
        "_TENANT_SEED_STRIDE: int = 7 * 11\n"
        "SEEDS = ('a',)\n"
        "seed_name = make()\n"
        "def f(seed, pop, name):\n"
        "    a = seed + 1\n"
        "    b = 3 * pop.seed\n"
        "    c = lanes.arrival(seed, 0, 1)\n"
        "    return hash((seed, name)) & 0x7FFFFFFF\n"
    )
    assert seed_constants(tree) == ["_SEED_OFFSET", "_TENANT_SEED_STRIDE"]
    assert seed_arithmetic(tree) == [6, 7]
    assert hash_calls(tree) == [9]
