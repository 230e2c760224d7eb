"""Six rules about the whole package, checked on its source.

One hash: only store.py imports hashlib, so every sha256 goes through store.digest or
store.write_text. One JSON parser: json.loads is called only in store.py (by
store.parse_json and store._parse_object), so every JSON text is read, and refused, by the
store's rules. One error family: every raise in the package raises a PipelineError
subclass, which the CLI maps to an exit code, except the programmer errors and the
internal signal declared in NOT_PIPELINE_ERRORS. One error class per distinction the
program makes: every exception class the package defines is named in one of its except
clauses, or is declared in UNCAUGHT_ERRORS. Errors cross processes: every exception class
survives pickling with its type, message and attributes. No export for its own sake: every
name the package's __init__.py imports is used by the package itself."""

import ast
import importlib
import pickle
from pathlib import Path

from claimcheck.errors import PipelineError

from test_file_access import PACKAGE

# (module, innermost enclosing function, exception raised there) of each raise that is not a
# PipelineError: the abstract methods of the backend interfaces, an annotation the type checks
# do not know, and the misfit that store.from_row always turns into a ValidationError.
NOT_PIPELINE_ERRORS = {
    ("rationale.py", "summarize", "NotImplementedError"),
    ("verdict.py", "generate", "NotImplementedError"),
    ("verdict.py", "train_step", "NotImplementedError"),
    ("verdict.py", "snapshot", "NotImplementedError"),
    ("verdict.py", "restore", "NotImplementedError"),
    ("errors.py", "value_rule", "TypeError"),
    ("store.py", "_convert", "_Misfit"),
}

# Exception classes that no except clause names, each with the reason it exists.
UNCAUGHT_ERRORS = {
    "PipelineError": "the base of ValidationError and BackendError, whose exit codes the CLI maps",
    "CorruptArtifact": "its __init__ formats the message of every raise of an undecodable artifact",
}


def modules():
    found = sorted(PACKAGE.rglob("*.py"))
    assert len(found) > 1
    return found


def parse(module):
    return ast.parse(module.read_text(encoding="utf-8"), str(module))


def namespace(module):
    return importlib.import_module(f"claimcheck.{module.stem}".removesuffix(".__init__"))


def test_only_the_store_imports_hashlib():
    importers = {module.name for module in modules() for node in ast.walk(parse(module))
                 if isinstance(node, ast.Import) and "hashlib" in {a.name for a in node.names}
                 or isinstance(node, ast.ImportFrom) and node.module == "hashlib"}
    assert importers == {"store.py"}


# The json module's parsers: what they may raise is for store.py alone to map.
JSON_PARSERS = {"loads", "load", "JSONDecoder"}


def test_only_the_store_parses_json():
    uses = {module.name for module in modules() for node in ast.walk(parse(module))
            if isinstance(node, ast.Attribute) and node.attr in JSON_PARSERS
            and isinstance(node.value, ast.Name) and node.value.id == "json"
            or isinstance(node, ast.ImportFrom) and node.module == "json"
            and JSON_PARSERS & {alias.name for alias in node.names}}
    assert uses == {"store.py"}


def _raises(node, function=None):
    """(innermost enclosing function, the raised expression or None for a bare raise) of each
    raise under `node`."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, ast.Raise):
            yield function, child.exc
        inner = child.name if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)) else function
        yield from _raises(child, inner)


def _resolve(namespace, expr):
    """The object a raise expression names: `Error`, `Error(...)` or `module.Error(...)`."""
    if isinstance(expr, ast.Call):
        return _resolve(namespace, expr.func)
    if isinstance(expr, ast.Name):
        return getattr(namespace, expr.id, None)
    if isinstance(expr, ast.Attribute):
        return getattr(_resolve(namespace, expr.value), expr.attr, None)
    return None


def other_raises():
    """(module, function, exception name) of each raise of anything but a PipelineError."""
    for module in modules():
        for function, expr in _raises(parse(module)):
            raised = _resolve(namespace(module), expr)
            if not (isinstance(raised, type) and issubclass(raised, PipelineError)):
                name = expr.func if isinstance(expr, ast.Call) else expr
                yield module.name, function, ast.unparse(name) if name else "a bare raise"


def test_every_raise_is_a_pipeline_error_or_declared():
    assert set(other_raises()) == NOT_PIPELINE_ERRORS


def exception_classes():
    """name -> class of each exception class the package defines."""
    return {node.name: cls for module in modules() for node in ast.walk(parse(module))
            if isinstance(node, ast.ClassDef)
            and isinstance(cls := getattr(namespace(module), node.name, None), type)
            and issubclass(cls, BaseException)}


def test_every_exception_class_is_caught_or_declared():
    caught = set()
    for module in modules():
        for node in ast.walk(parse(module)):
            if isinstance(node, ast.ExceptHandler) and node.type is not None:
                names = node.type.elts if isinstance(node.type, ast.Tuple) else [node.type]
                caught.update(n.id if isinstance(n, ast.Name) else n.attr for n in names)
    assert sorted(exception_classes().keys() - caught) == sorted(UNCAUGHT_ERRORS)


# The arguments of one instance of each exception class the package defines.
ERROR_ARGUMENTS = {
    "PipelineError": ("base",),
    "ValidationError": ("config key 'limit' must be >= 0, got -3",),
    "BackendError": ("an explain worker process died",),
    "BackendFailure": ("summarizer 'stub-lead': boom",),
    "EmptyEvidence": ("record 'c1': evidence is empty",),
    "EmptyEvidenceAfterFilter": ("c00001",),
    "UndecodableGeneration": ("'maybe' is not a verdict", "maybe"),
    "CorruptArtifact": (Path("out", "splits.json"), "not UTF-8 text", 3),
    "_Misfit": ("test[0]", "a string", 8),
}


def test_every_exception_class_survives_pickling():
    # explain's worker processes send their errors to the parent pickled
    classes = exception_classes()
    assert sorted(ERROR_ARGUMENTS) == sorted(classes)
    for name, cls in classes.items():
        error = cls(*ERROR_ARGUMENTS[name])
        for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
            copy = pickle.loads(pickle.dumps(error, protocol))
            assert type(copy) is cls, (name, protocol)
            assert (str(copy), copy.args, vars(copy)) == (str(error), error.args, vars(error)), \
                (name, protocol)


def test_every_exported_name_is_used_inside_the_package():
    init = PACKAGE / "__init__.py"
    exported = {alias.asname or alias.name for node in ast.walk(parse(init))
                if isinstance(node, ast.ImportFrom) for alias in node.names}
    used = {node.id if isinstance(node, ast.Name) else node.attr
            for module in modules() if module != init for node in ast.walk(parse(module))
            if isinstance(node, (ast.Name, ast.Attribute))}
    assert sorted(exported - used) == []
