"""Module boundaries of the package, read from its source with ast."""

import ast
import pathlib
import re
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "glsemi"
MODULES = sorted(SRC.glob("*.py"))


def _private_imports(tree: ast.Module) -> list[str]:
    """Every `_`-prefixed name this module takes from another module of
    the package: by `from .mod import _name`, or as `mod._name` where mod
    was bound by `from . import mod` or `import glsemi.mod as mod`."""
    found, modules = [], set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.level or (node.module or "").startswith("glsemi")):
            for alias in node.names:
                if node.module in (None, "glsemi"):  # from . import mod
                    modules.add(alias.asname or alias.name)
                elif alias.name.startswith("_"):
                    found.append(f"{node.module}.{alias.name}")
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.startswith("glsemi.") and alias.asname:
                    modules.add(alias.asname)
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id in modules:
            if node.attr.startswith("_"):
                found.append(f"{node.value.id}.{node.attr}")
    return found


def _package_imports(tree: ast.Module) -> set[str]:
    """Every module of the package this module imports: by `from .mod
    import x`, `from . import mod` or `import glsemi.mod`."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.level or (node.module or "").startswith("glsemi")):
            if node.module in (None, "glsemi"):
                found |= {alias.name for alias in node.names}
            else:
                found.add(node.module.removeprefix("glsemi."))
        elif isinstance(node, ast.Import):
            found |= {alias.name.removeprefix("glsemi.") for alias in node.names if alias.name.startswith("glsemi")}
    return found


def _third_party_imports(tree: ast.Module) -> list[str]:
    """The top-level name of every absolute import that is neither the
    standard library, numpy nor the package itself."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            found |= {alias.name.split(".")[0] for alias in node.names}
        elif isinstance(node, ast.ImportFrom) and not node.level:
            found.add(node.module.split(".")[0])
    return sorted(found - set(sys.stdlib_module_names) - {"numpy", "glsemi"})


def _unreferenced(trees: dict[str, ast.Module]) -> list[str]:
    """Every top-level public function and class of the package's modules
    (name to tree, `__init__` the package's own) that no code of the
    package reads, as a name or as an attribute of a module (`mod.name`,
    mod one of the trees), and `__init__` does not import.  An import
    alone is no reference: it may import a dead name, and neither is an
    attribute of anything else (`self.kernel`).  Methods are out of scope."""
    read, exported = set(), set()
    for name, tree in trees.items():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                read.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id in trees:
                read.add(node.attr)
            elif isinstance(node, ast.ImportFrom) and name == "__init__":
                exported |= {alias.name for alias in node.names}
    return sorted(
        f"{name}.{node.name}"
        for name, tree in trees.items()
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
        and not node.name.startswith("_")
        and node.name not in read | exported
    )


def _modular_inverses(trees: dict[str, ast.Module]) -> list[str]:
    """`module.function` of every modular inverse in the package's
    modules (name to tree): a call pow(x, e, m) whose exponent e is
    `something - 2` (Fermat) or -1.  A Gauss-Jordan elimination over
    GF(p) needs one to scale its pivots, so this finds each one."""
    found = []
    for name, tree in trees.items():
        for top in tree.body:
            for node in ast.walk(top):
                if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "pow"):
                    continue
                exp = ast.unparse(node.args[1]) if len(node.args) == 3 else ""
                if exp == "-1" or exp.endswith(" - 2"):
                    found.append(f"{name}.{getattr(top, 'name', '<module>')}")
    return found


def test_every_module_is_found():
    assert {path.stem for path in MODULES} >= {"gf_linalg", "semigroup_core", "gl_restriction", "isomorphism", "cli"}


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.stem)
def test_no_module_imports_another_modules_private_name(path):
    assert _private_imports(ast.parse(path.read_text(encoding="utf-8"))) == []


@pytest.mark.parametrize(
    "source",
    [
        "from .gl_restriction import Structure, _codes\n",
        "from glsemi.semigroup_core import _classes\n",
        "from . import semigroup_core\nsemigroup_core._ROW_BLOCK\n",
    ],
)
def test_a_private_import_is_flagged(source):
    assert len(_private_imports(ast.parse(source))) == 1


@pytest.mark.parametrize("name", ["gf_linalg", "semigroup_core"])
def test_the_generic_layers_import_only_errors_from_the_package(name):
    # The table engine and the GF(p) kernel know nothing of the semigroup
    # of linear maps, so either can be reused or tested on its own.
    assert _package_imports(ast.parse((SRC / f"{name}.py").read_text(encoding="utf-8"))) <= {"errors"}


@pytest.mark.parametrize(
    "source",
    [
        "from .errors import PreconditionError\nfrom .gl_restriction import Structure\n",
        "from glsemi import errors, gf_linalg\n",
        "import glsemi.isomorphism\n",
    ],
)
def test_a_package_import_is_flagged(source):
    assert len(_package_imports(ast.parse(source)) - {"errors"}) == 1


def test_every_public_function_and_class_is_used_by_the_package():
    # Tests may call a name, but a name only tests call belongs in the
    # tests' helpers: the package's API is what the package itself uses
    # or exports.
    assert _unreferenced({path.stem: ast.parse(path.read_text(encoding="utf-8")) for path in MODULES}) == []


@pytest.mark.parametrize(
    "sources",
    [
        {"a": "def used():\n    pass\n\n\ndef unused():\n    return used()\n"},
        {"a": "def f():\n    pass\n", "b": "from .a import f\n"},
        {"a": "class Kept:\n    pass\n\n\nclass Dropped:\n    pass\n", "__init__": "from .a import Kept\n"},
        # a.used is read through its module; kernel only as an attribute of
        # something else, which is no use of a.kernel.
        {"a": "def used():\n    pass\n\n\ndef kernel():\n    pass\n", "b": "from . import a\n\n\ndef _f(bt):\n    return a.used(), bt.kernel\n"},
    ],
)
def test_an_unreferenced_public_name_is_flagged(sources):
    assert len(_unreferenced({name: ast.parse(text) for name, text in sources.items()})) == 1


def _export_mismatch(readme: str, init: ast.Module) -> list[str]:
    """Every name that README's sentence "The package namespace
    re-exports exactly these names: ..." (its backticked names, up to the
    sentence's full stop) and the imports of the package's `__init__`
    do not share, sorted."""
    sentence = re.search(r"re-exports exactly these names:(.*?)\.\s", readme, re.S)
    listed = set(re.findall(r"`(\w+)`", sentence.group(1))) if sentence else set()
    imported = {alias.asname or alias.name for node in init.body if isinstance(node, ast.ImportFrom) for alias in node.names}
    return sorted(listed ^ imported)


def test_the_readme_lists_exactly_the_package_exports():
    # The README's export list is the package's documented API; a name
    # deleted or added on one side only leaves it wrong.
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    assert _export_mismatch(readme, ast.parse((SRC / "__init__.py").read_text(encoding="utf-8"))) == []


@pytest.mark.parametrize(
    "readme, init",
    [
        ("The package namespace re-exports exactly these names: `a`, `b` and\n`c`.  Not `d`.\n", "from .m import a, b\n"),
        ("The package namespace re-exports exactly these names: `a` and `b`.\n", "from .m import a\nfrom .n import b, c\n"),
    ],
    ids=["readme-only", "init-only"],
)
def test_an_export_on_one_side_only_is_flagged(readme, init):
    assert len(_export_mismatch(readme, ast.parse(init))) == 1


THREADS = {"threading", "concurrent", "multiprocessing"}


def _thread_imports(tree: ast.Module) -> list[str]:
    """Every import of a module that starts threads or processes
    (threading, concurrent.futures, multiprocessing), as the module named."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            found += [alias.name for alias in node.names if alias.name.split(".")[0] in THREADS]
        elif isinstance(node, ast.ImportFrom) and not node.level and node.module.split(".")[0] in THREADS:
            found.append(node.module)
    return found


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.stem)
def test_no_module_starts_threads_or_processes(path):
    # Every table loop runs on the calling thread.  The layer tracer in
    # perfbench keeps one span stack a process, so a package function
    # entered off the calling thread would corrupt its spans.  And no
    # command gains from a second thread: it left the Cayley fill flat at
    # order 4096, and Light's test, the one loop it sped up, is now only a
    # test oracle.
    assert _thread_imports(ast.parse(path.read_text(encoding="utf-8"))) == []


@pytest.mark.parametrize(
    "source",
    [
        "import threading\n",
        "from concurrent.futures import ThreadPoolExecutor\n",
        "import multiprocessing as mp\n",
    ],
)
def test_a_thread_or_process_import_is_flagged(source):
    assert len(_thread_imports(ast.parse(source))) == 1


#: The helpers of the table form given by mul, which the package no longer has.
MUL_FORM = {"_light", "_find_identity", "_table_array", "_check_table"}
#: The names of a whole n x n table kept beside the proof, which the package
#: no longer keeps: every product is read as part of a block.
WHOLE_TABLE = {"mul", "_mul"}


def _second_table_form(tree: ast.Module) -> list[str]:
    """Every trace of a table form given by mul, or of a whole table kept
    beside the proof, in a module: a function, method or class named in
    MUL_FORM; a `mul` or `check` parameter of `SemigroupTable.__init__`;
    a `mul` method or a `mul` / `_mul` slot of `SemigroupTable`; and any
    attribute `.mul` or `._mul`, read or written."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and node.name in MUL_FORM:
            found.append(node.name)
        elif isinstance(node, ast.Attribute) and node.attr in WHOLE_TABLE:
            found.append(f".{node.attr}")
        elif isinstance(node, ast.ClassDef) and node.name == "SemigroupTable":
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and item.name == "__init__":
                    args = item.args.posonlyargs + item.args.args + item.args.kwonlyargs
                    found += [f"SemigroupTable.__init__({arg.arg})" for arg in args if arg.arg in ("mul", "check")]
                elif isinstance(item, ast.FunctionDef) and item.name in WHOLE_TABLE:
                    found.append(f"SemigroupTable.{item.name}")
                elif isinstance(item, ast.Assign) and any(isinstance(t, ast.Name) and t.id == "__slots__" for t in item.targets):
                    slots = [c.value for c in ast.walk(item.value) if isinstance(c, ast.Constant)]
                    found += [f"SemigroupTable.__slots__({slot})" for slot in slots if slot in WHOLE_TABLE]
    return found


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.stem)
def test_no_module_keeps_a_second_table_form(path):
    # Every table is built from an action and proved as it is built, and
    # each reader reads the block of products it needs.  Light's test, the
    # mul form and the whole-table reads are oracles in tests/helpers.py,
    # not a second constructor path or a cache no claim needs.
    assert _second_table_form(ast.parse(path.read_text(encoding="utf-8"))) == []


@pytest.mark.parametrize(
    "source",
    [
        "def _light(mul, gens):\n    pass\n",
        "class SemigroupTable:\n    def _find_identity(self):\n        pass\n",
        "class SemigroupTable:\n    def __init__(self, action, product_row, identity_idx=None, check=True):\n        pass\n",
        "class SemigroupTable:\n    def __init__(self, mul=None, *, action=None, product_row=None):\n        pass\n",
        "class SemigroupTable:\n    __slots__ = (\"identity_idx\", \"_action\", \"_mul\")\n",
        "class SemigroupTable:\n    @property\n    def mul(self):\n        return self.products(range(len(self)), range(len(self)))\n",
        "def minimal_idempotents(s):\n    low = s.grades[0]\n    return low[s.table.mul[low, low] == low]\n",
    ],
)
def test_a_second_table_form_is_flagged(source):
    assert len(_second_table_form(ast.parse(source))) == 1


def _table_builders(trees: dict[str, ast.Module]) -> list[str]:
    """`module.function` of every call that constructs a SemigroupTable,
    by name or as an attribute (`semigroup_core.SemigroupTable(...)`),
    in the package's modules (name to tree), sorted."""
    found = []
    for name, tree in trees.items():
        for top in tree.body:
            for node in ast.walk(top):
                if isinstance(node, ast.Call) and "SemigroupTable" in (getattr(node.func, "id", None), getattr(node.func, "attr", None)):
                    found.append(f"{name}.{getattr(top, 'name', '<module>')}")
    return sorted(found)


def test_only_enumerate_semigroup_builds_a_table():
    # One table per instance: every product a claim reads, the unit
    # group's included, is a block of the member table, so no subset or
    # group of the instance gets a table of its own.
    trees = {path.stem: ast.parse(path.read_text(encoding="utf-8")) for path in MODULES}
    assert _table_builders(trees) == ["gl_restriction.enumerate_semigroup"]


@pytest.mark.parametrize(
    "source",
    [
        "def subtable(table, idxs):\n    return SemigroupTable(table._action[:, idxs], lambda i: table.products([i], idxs)[0])\n",
        "from . import semigroup_core\n\n\ndef unit_table(s):\n    return semigroup_core.SemigroupTable(s.act[:, s.grades[-1]], s.row)\n",
    ],
)
def test_a_second_table_build_is_flagged(source):
    found = _table_builders({"gl_restriction": ast.parse(source)})
    assert len(found) == 1 and found != ["gl_restriction.enumerate_semigroup"]


def test_the_package_holds_one_gauss_jordan():
    # One elimination over GF(p): rref_batch, which every canonical
    # basis, rank test, inverse and map given on a basis go through
    # (solve_batch and solve_codes on top of it).
    trees = {path.stem: ast.parse(path.read_text(encoding="utf-8")) for path in MODULES}
    assert _modular_inverses(trees) == ["gf_linalg.rref_batch"]


@pytest.mark.parametrize(
    "sources",
    [
        {"a": "def solve(p, x):\n    return pow(x, p - 2, p)\n\n\ndef rref(p, rows):\n    return [pow(r[0], p - 2, p) for r in rows]\n"},
        {"a": "def solve(p, x):\n    return pow(x, p - 2, p)\n", "b": "def inverse(p, x):\n    return pow(x, -1, p)\n"},
    ],
)
def test_a_second_modular_inverse_is_flagged(sources):
    found = _modular_inverses({name: ast.parse(text) for name, text in sources.items()})
    assert len(found) == 2 and len(set(found)) == 2


#: The callers of solve_batch: solve_codes, which inverts any number of
#: domains in parts of BATCH_CELLS entries, and the isomorphism witness,
#: one pass over two matrices.
SOLVE_BATCH_CALLERS = [
    "gf_linalg.solve_codes",
    "isomorphism.decide_isomorphic",
]


def _solve_batch_callers(trees: dict[str, ast.Module]) -> list[str]:
    """`module.function` of every call to solve_batch, by name or as an
    attribute (`gf_linalg.solve_batch(...)`), in the package's modules
    (name to tree), sorted."""
    found = []
    for name, tree in trees.items():
        for top in tree.body:
            for node in ast.walk(top):
                if isinstance(node, ast.Call) and "solve_batch" in (getattr(node.func, "id", None), getattr(node.func, "attr", None)):
                    found.append(f"{name}.{getattr(top, 'name', '<module>')}")
    return sorted(found)


def test_only_solve_codes_solves_a_stack_of_any_size():
    # One whole-stack solve over every member's domains set the verify
    # peak (about 20 MB at order 4096); a new solve over all the members
    # has to go through solve_codes, which solves them in parts.
    trees = {path.stem: ast.parse(path.read_text(encoding="utf-8")) for path in MODULES}
    assert _solve_batch_callers(trees) == SOLVE_BATCH_CALLERS


@pytest.mark.parametrize(
    "source",
    [
        "def domain_inverses(p, doms, eye):\n    return solve_batch(p, doms, eye)\n",
        "from . import gf_linalg\n\n\ndef images(p, doms, imgs):\n    return gf_linalg.solve_batch(p, doms, imgs)\n",
    ],
)
def test_another_solve_batch_caller_is_flagged(source):
    found = _solve_batch_callers({"gl_restriction": ast.parse(source)})
    assert len(set(found) - set(SOLVE_BATCH_CALLERS)) == 1


#: The sites that multiply vectors by matrices as (... @ ...) % p: small
#: products per subspace (its span, its translates, its coordinates),
#: and the images of U's basis under GL(U).
#: Every vector times every matrix of a stack is action_table's.
MATMUL_MOD_SITES = [
    "gf_linalg.coordinate_table",
    "gf_linalg.enumerate_complements",
    "gf_linalg.span_mask",
    "gl_restriction._members",
]


def _matmul_mod_sites(trees: dict[str, ast.Module]) -> list[str]:
    """`module.function` of every (a @ b) % m in the package's modules
    (name to tree), once per function, sorted."""
    found = set()
    for name, tree in trees.items():
        for top in tree.body:
            for node in ast.walk(top):
                if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Mod) and isinstance(node.left, ast.BinOp) and isinstance(node.left.op, ast.MatMult):
                    found.add(f"{name}.{getattr(top, 'name', '<module>')}")
    return sorted(found)


def test_the_package_holds_one_action_table_formula():
    # Every vector times every matrix of a stack is action_table's
    # code-addition kernel; an int64 product of the vectors and the
    # matrices, mod p, is left only at the small sites named.
    trees = {path.stem: ast.parse(path.read_text(encoding="utf-8")) for path in MODULES}
    assert _matmul_mod_sites(trees) == MATMUL_MOD_SITES


@pytest.mark.parametrize(
    "source",
    [
        "def action(p, rows):\n    vectors = code_vectors(p, rows.shape[-1])\n    return codes(p, vectors @ vectors[rows] % p).T\n",
        "class Batch:\n    def images(self, p, a, b):\n        return (a @ b) % p\n",
    ],
)
def test_a_second_action_table_formula_is_flagged(source):
    assert _matmul_mod_sites({"gl_restriction": ast.parse(source)}) in (["gl_restriction.action"], ["gl_restriction.Batch"])


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.stem)
def test_no_module_imports_a_third_party_package_but_numpy(path):
    # numpy is the one declared dependency; anything else would be a
    # dependency nobody installs, and an import cost in every command.
    assert _third_party_imports(ast.parse(path.read_text(encoding="utf-8"))) == []


@pytest.mark.parametrize(
    "source",
    [
        "import scipy\n",
        "import numpy as np\nfrom scipy.sparse.csgraph import connected_components\n",
        "from __future__ import annotations\nimport itertools\nimport networkx as nx\n",
    ],
)
def test_a_third_party_import_is_flagged(source):
    assert len(_third_party_imports(ast.parse(source))) == 1


def test_the_package_declares_only_numpy():
    tomllib = pytest.importorskip("tomllib")
    project = tomllib.loads((ROOT / "pyproject.toml").read_text(encoding="utf-8"))["project"]
    assert project["dependencies"] == ["numpy"]
