import ast
import importlib.util
from pathlib import Path

import avfield


def test_public_names_resolve():
    assert len(set(avfield.__all__)) == len(avfield.__all__)
    for name in avfield.__all__:
        assert hasattr(avfield, name), name
    namespace = {}
    exec("from avfield import *", namespace)  # raises on a stale export
    assert set(avfield.__all__) <= set(namespace)


def test_traced_layer_functions_resolve():
    # the benchmark's tracer wraps these by name; a vanished one reads as absent
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    for module, name, *_ in tracing.LAYER_FUNCTIONS:
        assert callable(getattr(importlib.import_module(module), name, None)), (module, name)


def test_the_package_does_not_import_scipy():
    # scipy is a test-only extra; function-level imports count too
    for path in sorted(Path(avfield.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            assert not any(n.split(".")[0] == "scipy" for n in names), (path.name, names)
