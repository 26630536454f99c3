"""Documentation gate: the docs are executable and cannot rot.

Three promises, all self-enforcing:

* every public item carries a docstring;
* every fenced code block in ``docs/`` and ``README.md`` runs green --
  ``python`` blocks are executed, ``repro ...`` command lines are checked
  against the real argument parser;
* every intra-repo markdown link points at a file that exists, and the
  checked-in ``docs/report-schema.md`` is byte-identical to what
  ``repro.core.report.schema_markdown()`` generates.
"""

import importlib
import inspect
import pathlib
import re
import shlex

import pytest

REPO_ROOT = pathlib.Path(__file__).resolve().parents[1]

MODULES = [
    "repro",
    "repro.trace",
    "repro.tech",
    "repro.errors",
    "repro.robust",
    "repro.clocks",
    "repro.netlist",
    "repro.netlist.components",
    "repro.netlist.netlist",
    "repro.netlist.simfmt",
    "repro.netlist.validate",
    "repro.stages",
    "repro.stages.stage",
    "repro.stages.decompose",
    "repro.stages.classify",
    "repro.stages.archetypes",
    "repro.flow",
    "repro.flow.direction",
    "repro.flow.hints",
    "repro.delay",
    "repro.delay.rctree",
    "repro.delay.elmore",
    "repro.delay.penfield",
    "repro.delay.slope",
    "repro.delay.effective_res",
    "repro.delay.stage_delay",
    "repro.delay.pool",
    "repro.delay.parametric",
    "repro.core",
    "repro.core.graph",
    "repro.core.arrival",
    "repro.core.paths",
    "repro.core.constraints",
    "repro.core.mindelay",
    "repro.core.charge",
    "repro.core.analyzer",
    "repro.core.provenance",
    "repro.core.report",
    "repro.sim",
    "repro.sim.devices",
    "repro.sim.spicelite",
    "repro.sim.switchsim",
    "repro.sim.rsim",
    "repro.sim.waveforms",
    "repro.sim.stimuli",
    "repro.sim.measure",
    "repro.sim.vectors",
    "repro.circuits",
    "repro.circuits.primitives",
    "repro.circuits.logic",
    "repro.circuits.latches",
    "repro.circuits.adders",
    "repro.circuits.shifter",
    "repro.circuits.pla",
    "repro.circuits.regfile",
    "repro.circuits.datapath",
    "repro.circuits.control",
    "repro.circuits.random_logic",
    "repro.baselines",
    "repro.baselines.gate_level",
    "repro.opt",
    "repro.opt.advisor",
    "repro.bench",
    "repro.bench.harness",
    "repro.bench.serve",
    "repro.serve",
    "repro.serve.rwlock",
    "repro.serve.cache",
    "repro.serve.session",
    "repro.serve.server",
    "repro.testing",
    "repro.testing.faults",
    "repro.cli",
]


@pytest.mark.parametrize("module_name", MODULES)
def test_module_has_docstring(module_name):
    module = importlib.import_module(module_name)
    assert module.__doc__ and module.__doc__.strip(), module_name


@pytest.mark.parametrize("module_name", MODULES)
def test_public_items_documented(module_name):
    module = importlib.import_module(module_name)
    public = getattr(module, "__all__", None)
    if public is None:
        public = [n for n in vars(module) if not n.startswith("_")]
    missing = []
    for name in public:
        obj = getattr(module, name, None)
        if obj is None or not callable(obj) and not inspect.isclass(obj):
            continue
        if inspect.ismodule(obj):
            continue
        if getattr(obj, "__module__", "").startswith("repro") is False:
            continue  # re-exported third-party / builtins
        doc = inspect.getdoc(obj)
        if not doc:
            missing.append(f"{module_name}.{name}")
        if inspect.isclass(obj):
            for attr_name, attr in vars(obj).items():
                if attr_name.startswith("_"):
                    continue
                if inspect.isfunction(attr) and not inspect.getdoc(attr):
                    missing.append(f"{module_name}.{name}.{attr_name}")
    assert not missing, f"undocumented public items: {missing}"


# ----------------------------------------------------------------------
# Executable documentation: fenced code blocks in docs/ and README.
# ----------------------------------------------------------------------
DOC_FILES = sorted(
    path.relative_to(REPO_ROOT).as_posix()
    for path in [REPO_ROOT / "README.md", *(REPO_ROOT / "docs").glob("*.md")]
)

# Markdown files whose intra-repo links must resolve.
LINKED_FILES = sorted(
    path.relative_to(REPO_ROOT).as_posix()
    for path in [*REPO_ROOT.glob("*.md"), *(REPO_ROOT / "docs").glob("*.md")]
)

_FENCE_RE = re.compile(r"^```([\w-]*)[^\n]*\n(.*?)^```", re.M | re.S)
_LINK_RE = re.compile(r"\[[^\]]*\]\(([^)\s]+)\)")

# Shell lines that are illustrative, not checkable against the parser.
_SKIP_PREFIXES = ("pip ", "pytest ", "cd ", "git ", "export ", "echo ")


def fenced_blocks(relpath: str) -> list[tuple[str, str, int]]:
    """Every fenced code block in a markdown file: (lang, code, line)."""
    text = (REPO_ROOT / relpath).read_text()
    blocks = []
    for match in _FENCE_RE.finditer(text):
        line = text[: match.start()].count("\n") + 1
        blocks.append((match.group(1), match.group(2), line))
    return blocks


def _strip_env_prefix(tokens: list[str]) -> list[str]:
    while tokens and "=" in tokens[0] and not tokens[0].startswith("-"):
        tokens = tokens[1:]
    return tokens


@pytest.mark.parametrize("relpath", DOC_FILES)
def test_python_blocks_execute(relpath, tmp_path, monkeypatch):
    """Every ``python`` fenced block runs green, top to bottom.

    Blocks within one file share a namespace (later blocks may build on
    earlier ones) and run in a scratch directory so examples that write
    files cannot dirty the checkout.
    """
    monkeypatch.chdir(tmp_path)
    namespace: dict = {}
    ran = 0
    for lang, code, line in fenced_blocks(relpath):
        if lang != "python":
            continue
        try:
            exec(compile(code, f"{relpath}:{line}", "exec"), namespace)
        except Exception as exc:  # pragma: no cover - failing doc example
            pytest.fail(
                f"{relpath} line {line}: python example raised "
                f"{type(exc).__name__}: {exc}"
            )
        ran += 1
    if relpath.startswith("docs/") and relpath != "docs/report-schema.md":
        assert ran or relpath == "docs/cli.md", (
            f"{relpath}: expected at least one executable python block"
        )


@pytest.mark.parametrize("relpath", DOC_FILES)
def test_shell_blocks_parse(relpath):
    """Every ``repro ...`` line in a shell block satisfies the real parser.

    argparse never opens the netlist at parse time, so this validates
    documented flags and subcommands without needing the example files
    to exist.  Non-repro lines (pip/pytest/comments) are skipped.
    """
    from repro.cli import build_parser

    parser = build_parser()
    for lang, code, line in fenced_blocks(relpath):
        if lang not in ("bash", "sh", "shell", "console"):
            continue
        for offset, raw in enumerate(code.splitlines()):
            command = raw.strip().removeprefix("$ ").strip()
            if not command or command.startswith("#"):
                continue
            if command.startswith(_SKIP_PREFIXES):
                continue
            tokens = _strip_env_prefix(shlex.split(command, comments=True))
            if tokens[:3] == ["python", "-m", "repro"]:
                tokens = ["repro"] + tokens[3:]
            if not tokens or tokens[0] != "repro":
                continue
            try:
                parser.parse_args(tokens[1:])
            except SystemExit as exc:
                if exc.code not in (0, None):
                    pytest.fail(
                        f"{relpath} line {line + offset + 1}: "
                        f"documented command does not parse: {command!r}"
                    )


@pytest.mark.parametrize("relpath", LINKED_FILES)
def test_intra_repo_links_resolve(relpath):
    """Every relative markdown link points at a file that exists."""
    text = (REPO_ROOT / relpath).read_text()
    # Links inside fenced code blocks are code, not navigation.
    text = _FENCE_RE.sub("", text)
    dead = []
    for target in _LINK_RE.findall(text):
        if target.startswith(("http://", "https://", "mailto:", "#")):
            continue
        target_path = target.split("#", 1)[0]
        if not target_path:
            continue
        resolved = ((REPO_ROOT / relpath).parent / target_path).resolve()
        if not resolved.exists():
            dead.append(target)
    assert not dead, f"{relpath}: dead intra-repo links: {dead}"


def test_schema_reference_is_current():
    """docs/report-schema.md matches schema_markdown() byte for byte.

    Regenerate with:
    ``PYTHONPATH=src python -m repro.core.report > docs/report-schema.md``
    """
    from repro.core import schema_markdown

    checked_in = (REPO_ROOT / "docs" / "report-schema.md").read_text()
    assert checked_in == schema_markdown(), (
        "docs/report-schema.md is stale; regenerate it from the schema"
    )
