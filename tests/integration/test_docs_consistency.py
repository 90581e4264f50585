"""Documentation consistency guards.

Docs rot silently; these tests keep the load-bearing claims of README,
DESIGN and docs/api.md anchored to the code.
"""

import pathlib
import re

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[2]


def _exports(module):
    return set(getattr(module, "__all__", ())) | {
        name for name in dir(module) if not name.startswith("_")
    }


class TestApiDocMatchesCode:
    @pytest.mark.parametrize(
        "module_name",
        ["repro", "repro.core", "repro.netsim", "repro.measurement",
         "repro.experiments", "repro.faults", "repro.monitor",
         "repro.serialize", "repro.stream", "repro.validate"],
    )
    def test_documented_names_exist(self, module_name):
        """Every `backticked` identifier under a module's section of
        docs/api.md must be importable from that module (or one of its
        public submodules for dotted names)."""
        import importlib

        text = (ROOT / "docs" / "api.md").read_text()
        # Find the section for this module.
        sections = re.split(r"\n## ", text)
        section = next(
            (s for s in sections if s.startswith(f"`{module_name}`")), None
        )
        assert section is not None, f"no api.md section for {module_name}"
        module = importlib.import_module(module_name)
        names = re.findall(r"`([A-Za-z_][A-Za-z0-9_]*)`", section)

        def resolvable(name):
            if hasattr(module, name):
                return True
            # Method of a documented class exported from the module.
            for attr in dir(module):
                value = getattr(module, attr)
                if isinstance(value, type) and hasattr(value, name):
                    return True
            # One-level public submodule (e.g. repro.netsim.gen.<name>,
            # repro.experiments.scaling.<name>).
            package_path = getattr(module, "__path__", None)
            if package_path:
                import pkgutil

                for info in pkgutil.iter_modules(package_path):
                    if info.name.startswith("_"):
                        continue
                    try:
                        sub = importlib.import_module(
                            f"{module_name}.{info.name}"
                        )
                    except ImportError:
                        continue
                    if info.name == name or hasattr(sub, name):
                        return True
            return False

        missing = [
            name
            for name in names
            if name not in ("python", "run", module_name)
            and not resolvable(name)
        ]
        assert not missing, f"documented but absent from {module_name}: {missing}"


class TestDesignInventoryMatchesTree:
    def test_every_inventory_module_exists(self):
        """Module paths named in DESIGN.md's §3 inventory must exist."""
        text = (ROOT / "DESIGN.md").read_text()
        block = text.split("## 3. Package inventory", 1)[1].split("## 4.", 1)[0]
        for match in re.finditer(r"^\s{4}([a-z_/]+\.py)\s", block, re.M):
            rel = match.group(1)
            # Paths are relative to src/repro/<subpackage>; search the tree.
            hits = list((ROOT / "src" / "repro").rglob(rel.split("/")[-1]))
            assert hits, f"DESIGN.md names missing module {rel}"

    def test_experiments_md_mentions_every_figure(self):
        text = (ROOT / "EXPERIMENTS.md").read_text()
        for figure in range(5, 13):
            assert f"Figure {figure}" in text


class TestReadmeCommandsAreReal:
    def test_cli_invocations_parse(self):
        """Each `python -m repro...` line in README must at least parse."""
        from repro.__main__ import main as repro_main

        text = (ROOT / "README.md").read_text()
        for line in re.findall(r"python -m repro[^\n`]*", text):
            argv = line.split()[3:]
            argv = [a for a in argv if not a.startswith("#")]
            if not argv:
                continue
            # Parse-only check: swap heavy actions for --help-style parsing
            # by validating known subcommands/flags.
            assert line.startswith("python -m repro "), (
                f"README documents a module other than the one CLI: {line}"
            )
            if argv[0] == "figures":
                known = {"--figure", "--paper-scale", "--placements",
                         "--failures", "--sensors", "--seed", "--topo-seed",
                         "--workers", "--json-out"}
                flags = {a for a in argv if a.startswith("--")}
                assert flags <= known, f"README documents unknown flag in: {line}"
            else:
                assert argv[0] in {"topology", "diagnose", "replay",
                                   "scaling", "degradation", "stream",
                                   "monitor", "crossval"}, line
