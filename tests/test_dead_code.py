"""Dead-code guard over the package source, read with the stdlib `ast`.

Every top-level function and class in `src/tribeta` must be referenced by
name somewhere in `src/` outside its own definition (an import alone does
not count), unless it is public API listed below.  No module-level import
may go unused; package `__init__` modules are exempt, since their imports
are the re-exported interface.

Every method of a class in `src/tribeta`, other than `__dunder__` ones,
must be called (`obj.name(...)`) somewhere in `src/` outside its own body,
and every property read there, unless it is listed below.  A call is asked
for, not a mention: a method name can also name a data attribute
(`Lattice.counts` beside `PseudoDataset.counts`).

Every defaulted function parameter and dataclass field must be passed by
some call in `src/` (by keyword or by position), matched by the callee's
name, unless it is listed below with its outside source: a setting that
no caller varies is a constant, not an option.  A `**mapping` argument
passes nothing here, since the guard cannot see its keys: a setting that
only a document sets is listed with the document.

Every dataclass field must be read somewhere in `src/`: through an
attribute, or by a method of its class that passes `self` to `asdict`,
`astuple` or `fields` (as `Constants.as_dict` does for `constants dump`).

Files are read and written in one module: `json.dump`, `json.load`,
`csv.writer` and `open` in a mode other than reading are called only in
`errors.py`, so every output has one format and one way to be opened.

Every allowlist must stay current: an entry whose name no longer exists,
or that now has a caller or is now passed, fails the test that reads it.
"""

import ast
import math
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "tribeta"

#: public API with no caller in src/, one reason each
ALLOWED_UNREFERENCED = {
    "save_dataset": "public dataset writer, documented in README",
    "generate_pseudodata": "public pseudo-data generator, documented in "
                           "README; the benchmark's recoil-fit set-up",
    "expected_counts": "public expected counts of a truth on given bins, "
                       "documented in README; the acceptance criteria",
}


def _modules():
    return {path: ast.parse(path.read_text(encoding="utf-8"))
            for path in sorted(SRC.rglob("*.py"))}


def _references(tree):
    """(name, node) for every name read or attribute accessed."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id, node
        elif isinstance(node, ast.Attribute):
            yield node.attr, node


def test_every_top_level_definition_has_a_caller():
    modules = _modules()
    refs = {}
    for tree in modules.values():
        for name, node in _references(tree):
            refs.setdefault(name, []).append(node)
    unreferenced, flagged = [], []
    for path, tree in modules.items():
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                continue
            own = {id(n) for n in ast.walk(node)}
            if not any(id(r) not in own for r in refs.get(node.name, [])):
                unreferenced.append(node.name)
                if node.name not in ALLOWED_UNREFERENCED:
                    flagged.append(f"{path.relative_to(SRC)}:{node.name}")
    assert flagged == []
    # a stale entry: the name is gone or now has a caller
    assert sorted(set(ALLOWED_UNREFERENCED) - set(unreferenced)) == []


#: methods with no call in src/, one reason each
ALLOWED_UNCALLED_METHODS = {
    "_Parser.error": "argparse hook, called by ArgumentParser itself",
    "MoleculeModel.to_json": "public model writer, documented in README",
    "RecoilEngine.operator_moments":
        "acceptance criteria 5-6; ROADMAP directions 2 and 4",
    "RecoilEngine.c_term_bound":
        "acceptance criteria 5-6; ROADMAP directions 2 and 4",
}


def test_every_method_has_a_caller():
    modules = _modules()
    called, read = {}, {}
    for tree in modules.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute):
                read.setdefault(node.attr, []).append(node)
            if isinstance(node, ast.Call) and isinstance(node.func,
                                                         ast.Attribute):
                called.setdefault(node.func.attr, []).append(node.func)
    uncalled, flagged = [], []
    for path, tree in modules.items():
        for cls in [n for n in ast.walk(tree) if isinstance(n, ast.ClassDef)]:
            for fn in cls.body:
                if not isinstance(fn, ast.FunctionDef) or (
                        fn.name.startswith("__") and fn.name.endswith("__")):
                    continue
                prop = any(getattr(d, "id", "") == "property"
                           for d in fn.decorator_list)
                uses = (read if prop else called).get(fn.name, [])
                own = {id(n) for n in ast.walk(fn)}
                if any(id(u) not in own for u in uses):
                    continue
                uncalled.append(f"{cls.name}.{fn.name}")
                if uncalled[-1] not in ALLOWED_UNCALLED_METHODS:
                    flagged.append(f"{path.relative_to(SRC)}:{uncalled[-1]}")
    assert flagged == []
    # a stale entry: the method is gone or now has a caller
    assert sorted(set(ALLOWED_UNCALLED_METHODS) - set(uncalled)) == []


def test_no_unused_module_imports():
    unused = []
    for path, tree in _modules().items():
        if path.name == "__init__.py":
            continue
        used = {name for name, _ in _references(tree)}
        for node in tree.body:
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    bound = (alias.asname or alias.name).split(".")[0]
                    if bound not in used:
                        unused.append(f"{path.relative_to(SRC)}:{bound}")
    assert unused == []


#: defaulted parameters and dataclass fields that no call in src/ passes,
#: one reason each; an owner without a setting name covers all its settings
ALLOWED_UNPASSED = {
    "MoleculeModel.initial_mass_au": "read from the --model JSON",
    "MoleculeModel.final_mass_au": "read from the --model JSON",
    "MoleculeModel.grid": "read from the --model JSON",
    "main.argv": "argument list of the console entry point, for callers",
    "Constants": "read from the TRIBETA_CONSTANTS file",
    "FitConfig.free": "read from fit.json",
    "FitConfig.max_iterations": "read from fit.json",
    "SpectrumParams.z_daughter": "read from params.json and fit.json initial",
    "ResponseModel.half_width_sigmas": "read from fit.json response",
    "ResponseModel.step_fraction": "read from fit.json response",
    "Channel.z_eff": "read from the --model JSON",
}


def _is_dataclass(node):
    return any(isinstance(d, ast.Name) and d.id == "dataclass"
               or isinstance(d, ast.Call) and getattr(d.func, "id", "") == "dataclass"
               for d in node.decorator_list)


def _init_false(stmt):
    """A `field(init=False, ...)` declaration, which no caller can set."""
    return isinstance(stmt.value, ast.Call) and any(
        k.arg == "init" and isinstance(k.value, ast.Constant)
        and k.value.value is False for k in stmt.value.keywords)


def _settings(tree):
    """(owner, name, position) of every defaulted function parameter and
    dataclass field, the position counted as a call passes it."""
    for cls in [n for n in ast.walk(tree) if isinstance(n, ast.ClassDef)]:
        if not _is_dataclass(cls):
            continue
        fields = [s for s in cls.body
                  if isinstance(s, ast.AnnAssign) and not _init_false(s)]
        for pos, stmt in enumerate(fields):
            if stmt.value is not None:
                yield cls.name, stmt.target.id, pos
    methods = {id(f): cls.name for cls in ast.walk(tree)
               if isinstance(cls, ast.ClassDef) for f in cls.body}
    for fn in ast.walk(tree):
        if not isinstance(fn, ast.FunctionDef):
            continue
        positional = fn.args.posonlyargs + fn.args.args
        owner = fn.name
        if id(fn) in methods and not any(getattr(d, "id", "") == "staticmethod"
                                         for d in fn.decorator_list):
            positional = positional[1:]
            if fn.name == "__init__":
                owner = methods[id(fn)]
        defaults = fn.args.defaults
        for pos, arg in enumerate(positional[len(positional) - len(defaults):],
                                  start=len(positional) - len(defaults)):
            yield owner, arg.arg, pos
        for arg, default in zip(fn.args.kwonlyargs, fn.args.kw_defaults):
            if default is not None:
                yield owner, arg.arg, math.inf


def _calls(trees):
    """callee name -> list of (keywords, positional count)."""
    calls = {}
    for tree in trees:
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            name = getattr(node.func, "id", None) or getattr(node.func, "attr", None)
            n_pos = math.inf if any(isinstance(a, ast.Starred)
                                    for a in node.args) else len(node.args)
            calls.setdefault(name, []).append((
                {k.arg for k in node.keywords}, n_pos))
    return calls


def test_every_setting_is_passed_by_a_caller():
    """A default that no call in src/ overrides is a constant, not an option."""
    modules = _modules()
    calls = _calls(modules.values())
    unpassed, allowed_used = [], set()
    for path, tree in modules.items():
        for owner, name, pos in _settings(tree):
            if any(name in kw or n_pos > pos
                   for kw, n_pos in calls.get(owner, [])):
                continue
            allowed = {owner, f"{owner}.{name}"} & set(ALLOWED_UNPASSED)
            allowed_used |= allowed
            if not allowed:
                unpassed.append(f"{path.relative_to(SRC)}:{owner}.{name}")
    assert unpassed == []
    # a stale entry: the setting is gone or now passed
    assert sorted(set(ALLOWED_UNPASSED) - allowed_used) == []


def _reads_whole(cls):
    """A method of cls passes self to asdict, astuple or fields."""
    return any(isinstance(node, ast.Call)
               and (getattr(node.func, "id", None)
                    or getattr(node.func, "attr", None))
               in {"asdict", "astuple", "fields"}
               and node.args and getattr(node.args[0], "id", None) == "self"
               for node in ast.walk(cls))


def test_every_dataclass_field_is_read():
    """A field that nothing in src/ reads is state no output depends on."""
    modules = _modules()
    reads = {node.attr for tree in modules.values() for node in ast.walk(tree)
             if isinstance(node, ast.Attribute)
             and isinstance(node.ctx, ast.Load)}
    unread = []
    for path, tree in modules.items():
        for cls in ast.walk(tree):
            if not (isinstance(cls, ast.ClassDef) and _is_dataclass(cls)) \
                    or _reads_whole(cls):
                continue
            unread += [f"{path.relative_to(SRC)}:{cls.name}.{stmt.target.id}"
                       for stmt in cls.body if isinstance(stmt, ast.AnnAssign)
                       and stmt.target.id not in reads]
    assert unread == []


def _file_io(tree):
    """(what, line) for each json.dump, json.dumps, json.load or csv.writer
    call, and each open() whose mode is not a constant made of "r", "b" and
    "t"."""
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        if isinstance(func, ast.Attribute) and isinstance(func.value, ast.Name):
            what = f"{func.value.id}.{func.attr}"
            if what in {"json.dump", "json.dumps", "json.load", "csv.writer"}:
                yield what, node.lineno
        elif isinstance(func, ast.Name) and func.id == "open":
            modes = node.args[1:2] + [k.value for k in node.keywords
                                      if k.arg == "mode"]
            if any(not (isinstance(m, ast.Constant) and isinstance(m.value, str)
                        and set(m.value) <= set("rbt")) for m in modes):
                yield "open for writing", node.lineno


#: the one json.dumps allowed outside errors.py: its bytes feed the
#: `model_hash` recorded in provenance, so changing its format would change
#: every recorded hash
HASH_DUMPS = ("franck_condon/molecule.py", "MoleculeModel", "parameter_hash")


def _method_lines(tree, class_name, method):
    return {line for cls in ast.walk(tree) if isinstance(cls, ast.ClassDef)
            and cls.name == class_name for fn in cls.body
            if isinstance(fn, ast.FunctionDef) and fn.name == method
            for line in range(fn.lineno, fn.end_lineno + 1)}


def test_files_are_written_only_through_errors():
    """One writer per format: the rest of src/ calls `write_document`,
    `write_table`, `document_text` or `open_output` instead."""
    modules = _modules()
    found = {str(path.relative_to(SRC)): [f"{line}: {what}"
                                          for what, line in _file_io(tree)]
             for path, tree in modules.items()}
    assert {what.split(": ")[1] for what in found.pop("errors.py")} == {
        "json.dumps", "json.load", "csv.writer", "open for writing"}
    module, class_name, method = HASH_DUMPS
    hash_lines = _method_lines(modules[SRC / module], class_name, method)
    allowed = [call for call in found[module] if call.endswith("json.dumps")
               and int(call.split(": ")[0]) in hash_lines]
    assert len(allowed) == 1
    found[module].remove(allowed[0])
    assert {path: calls for path, calls in found.items() if calls} == {}
