"""Six rules about the whole package, checked on its source.

One hash and one JSON seam: only store.py imports hashlib or json, so every sha256 goes through
store.digest or store.write_text, and every JSON text is parsed, and refused, by the store's
rules (one decoder, by store.parse_json and store._parse_object) and encoded by the encoders it
builds. One error family: every raise in the package raises a PipelineError subclass, which the
CLI maps to an exit code, except the programmer errors, the internal signal and the one re-raise
declared in NOT_PIPELINE_ERRORS. One error class per distinction the program makes: every
exception class the package defines is named in one of its except clauses, or is declared in
UNCAUGHT_ERRORS. Errors cross processes: every exception class survives pickling with its type,
message and attributes. No export for its own sake: every name the package's __init__.py imports
is used by the package itself. The codec knows no artifact: pipeline._read and pipeline._write
name no artifact-file constant, so every check that one artifact makes of another, or of the
config, is made in one place, pipeline._check_inputs."""

import ast
import importlib
import pickle
from pathlib import Path

from claimcheck import pipeline
from claimcheck.errors import PipelineError

from test_file_access import PACKAGE

# (module, innermost enclosing function, exception raised there) of each raise that is not a
# PipelineError: an annotation the type checks do not know, the misfit that store.from_row
# always turns into a ValidationError (raised by a leaf's decoder, and again with its path by
# each decoder above it), and the repeated key that store's two JSON parsers turn into one. One
# raise of a PipelineError is listed because its expression names no class: the first error
# map_records caught, raised again when every record failed.
NOT_PIPELINE_ERRORS = {
    ("errors.py", "map_records", "next"),
    ("store.py", "value_rule", "TypeError"),
    ("store.py", "decode_leaf", "_Misfit"),
    ("store.py", "decode_object", "_Misfit"),
    ("store.py", "decode_list", "_Misfit"),
    ("store.py", "decode_dict", "_Misfit"),
    ("store.py", "_json_object", "ValueError"),
}

# Exception classes that no except clause names, each with the reason it exists.
UNCAUGHT_ERRORS = {
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


def imported_modules(tree):
    """The top-level name of each module an absolute import in `tree` imports."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (alias.name.partition(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module.partition(".")[0]


def importers(name):
    """The name of each module of the package that imports the module `name`."""
    return {module.name for module in modules() if name in set(imported_modules(parse(module)))}


def test_only_the_store_imports_hashlib():
    assert importers("hashlib") == {"store.py"}


def test_only_the_store_parses_json():
    # No other module imports json at all, so none can parse, or encode, a JSON text.
    assert importers("json") == {"store.py"}


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


def test_the_artifact_codec_names_no_artifact():
    files = {name for name, value in vars(pipeline).items()
             if isinstance(value, str) and value in {*pipeline.ARTIFACTS, pipeline.MANIFEST}}
    assert {"CORPUS_CLEAN", "MODEL_STATE", "RATIONALES", "MANIFEST"} <= files
    codec = [node for node in parse(PACKAGE / "pipeline.py").body
             if isinstance(node, ast.FunctionDef) and node.name in ("_read", "_write")]
    assert len(codec) == 2
    named = {node.id for function in codec for node in ast.walk(function)
             if isinstance(node, ast.Name)}
    assert sorted(named & files) == []
