"""Every public name of crfbench has a caller outside its own unit tests.

An AST scan: each public function, class, method and module constant of
``src/crfbench`` must be referenced by name somewhere in ``src/``,
``scripts/``, ``bench/`` or ``tests/test_acceptance.py``, besides its own
definition.  A reference is a name that is read, an attribute, or an
imported name.  The scan matches bare names, so a dead definition that
shares its name with a live one goes unseen; it never flags a live one.
``KEPT`` lists the names kept on purpose without such a caller.

Private names are held to more: each private module-level function and
each private method (dunders aside) must be referenced from ``src/``,
``scripts/`` or ``bench/``.  A helper that only tests call belongs with the
tests, as the reference rows of ``tests/oracles.py`` do.

A name scan cannot see an operator or a branch that no route runs: a
dunder method such as ``__sub__`` is called through syntax, and a branch
has no name.  Those need a line trace.  The last one covered the tier-1
suite, the three scripts and two passes of every benchmark workload, and
the value-type operators and branches it found unreached were deleted.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "crfbench"
CORPUS = [*sorted((ROOT / "src").rglob("*.py")),
          *sorted((ROOT / "scripts").rglob("*.py")),
          *sorted((ROOT / "bench").rglob("*.py")),
          ROOT / "tests" / "test_acceptance.py"]
PROGRAM = CORPUS[:-1]

# "module.qualified name" -> why it stays without a caller in the corpus
KEPT = {
    "syzygy.OperatorPoly.apply":
        "the independent cross-check that the README's design constant keeps",
    "hypercomplex.HNumber.norm_sq":
        "the composition-algebra norm the multiplicativity tests pin",
    "polycalc.HPoly.component":
        "the independent rank_matrix_from_scratch oracle reads components",
    "forms.OMEGA2_PREFACTOR": "documents the kernel form's normalisation",
}


def public_definitions(path):
    """(qualified name, bare name) of the module's public functions,
    classes, methods and module constants."""
    for node in ast.parse(path.read_text()).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            if node.name.startswith("_"):
                continue
            yield node.name, node.name
            if isinstance(node, ast.ClassDef):
                for member in node.body:
                    if isinstance(member, ast.FunctionDef) \
                            and not member.name.startswith("_"):
                        yield f"{node.name}.{member.name}", member.name
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) \
                else [node.target]
            for target in targets:
                if isinstance(target, ast.Name) \
                        and not target.id.startswith("_"):
                    yield target.id, target.id


def is_private(name):
    return name.startswith("_") and not (name.startswith("__")
                                         and name.endswith("__"))


def private_definitions(path):
    """(qualified name, bare name) of the module's private functions and of
    the private methods of its classes."""
    for node in ast.parse(path.read_text()).body:
        if isinstance(node, ast.FunctionDef) and is_private(node.name):
            yield node.name, node.name
        elif isinstance(node, ast.ClassDef):
            for member in node.body:
                if isinstance(member, ast.FunctionDef) \
                        and is_private(member.name):
                    yield f"{node.name}.{member.name}", member.name


def names_read(tree):
    """Every name the tree reads, every attribute and every imported name."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.alias):
            yield node.name.rsplit(".", 1)[-1]


def references(path):
    """Every name the file reads, every attribute and every imported name."""
    return names_read(ast.parse(path.read_text()))


def definitions():
    return {f"{path.stem}.{qual}": bare
            for path in sorted(PACKAGE.glob("*.py"))
            for qual, bare in public_definitions(path)}


def test_every_public_name_has_a_caller():
    used = {name for path in CORPUS for name in references(path)}
    orphans = [name for name, bare in definitions().items()
               if bare not in used and name not in KEPT]
    assert orphans == []


def test_every_kept_name_is_still_defined():
    assert sorted(set(KEPT) - set(definitions())) == []


def test_every_private_name_has_a_caller_in_the_program():
    used = {name for path in PROGRAM for name in references(path)}
    orphans = [f"{path.stem}.{qual}"
               for path in sorted(PACKAGE.glob("*.py"))
               for qual, bare in private_definitions(path)
               if bare not in used]
    assert orphans == []


PACKING = ("_pack", "_unpack", "_units", "_parity_mask", "_class_masks",
           "_odd_class")


def test_packing_and_parity_have_one_home():
    """The packed-monomial format and the odd-class parity are defined
    once under src/, in polycalc, and syzygy imports nothing from
    crfsolve."""
    homes = {}
    for path in sorted((ROOT / "src").rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.FunctionDef) and node.name in PACKING:
                homes.setdefault(node.name, []).append(path.stem)
    assert homes == {name: ["polycalc"] for name in PACKING}
    imported = set()
    for node in ast.walk(ast.parse((PACKAGE / "syzygy.py").read_text())):
        if isinstance(node, ast.ImportFrom):
            imported.add((node.module or "").rsplit(".", 1)[-1])
            imported.update(alias.name for alias in node.names)
        elif isinstance(node, ast.Import):
            imported.update(alias.name.rsplit(".", 1)[-1]
                            for alias in node.names)
    assert "crfsolve" not in imported


def test_class_certificates_have_one_reader():
    """Under src/, the certificates of the class shifts are read in one
    place, hypercomplex._class_shifts, and the partial class orbits and the
    per-call class map are gone."""
    readers, defined = [], set()
    for path in sorted((ROOT / "src").rglob("*.py")):
        tree = ast.parse(path.read_text())
        defined.update(node.name for node in ast.walk(tree)
                       if isinstance(node, ast.FunctionDef))
        readers += [f"{path.stem}.{getattr(node, 'name', '<module>')}"
                    for node in tree.body
                    if "_certificate" in names_read(node)]
    assert readers == ["hypercomplex._class_shifts"]
    assert defined.isdisjoint({"_class_orbits", "_class_map"})


def test_payload_coefficients_and_class_copies_have_one_path():
    """Under src/, payload coefficients have one reader and class copies
    one writer: the only from_json is HPoly.from_json, the component
    patterns _RATIO and _EXPONENT live in polycalc alone, and the second
    class-copy route (_moved, _poly_from_columns) is gone."""
    readers, patterns, defined = [], {}, []
    for path in sorted((ROOT / "src").rglob("*.py")):
        tree = ast.parse(path.read_text())
        for node in ast.walk(tree):
            if isinstance(node, ast.FunctionDef):
                defined.append(node.name)
            elif isinstance(node, ast.ClassDef):
                readers += [f"{path.stem}.{node.name}.{member.name}"
                            for member in node.body
                            if isinstance(member, ast.FunctionDef)
                            and member.name == "from_json"]
            elif isinstance(node, ast.Assign):
                for target in node.targets:
                    if isinstance(target, ast.Name) \
                            and target.id in ("_RATIO", "_EXPONENT"):
                        patterns.setdefault(target.id, []).append(path.stem)
    assert readers == ["polycalc.HPoly.from_json"]
    assert defined.count("from_json") == 1     # no module-level one
    assert patterns == {"_RATIO": ["polycalc"], "_EXPONENT": ["polycalc"]}
    assert {"_moved", "_poly_from_columns"}.isdisjoint(defined)
