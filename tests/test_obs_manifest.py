"""Run provenance: the git SHA lookup behind every manifest."""

import shutil
import subprocess
from pathlib import Path

import pytest

import repro
from repro.obs import manifest as manifest_module
from repro.obs.manifest import git_sha

PACKAGE_DIR = Path(repro.__file__).resolve().parent
REPO_ROOT = PACKAGE_DIR.parent.parent


@pytest.fixture(autouse=True)
def fresh_git_sha():
    """Each test starts and ends with an empty memo (no faked SHA leaks)."""
    git_sha.cache_clear()
    yield
    git_sha.cache_clear()


def in_checkout() -> bool:
    if shutil.which("git") is None:
        return False
    probe = subprocess.run(
        ["git", "-C", str(PACKAGE_DIR), "rev-parse", "HEAD"],
        capture_output=True,
        text=True,
        check=False,
    )
    return probe.returncode == 0


class TestGitSha:
    def test_spawns_git_once_per_process(self, monkeypatch):
        spawns = []

        def fake_run(argv, **_kwargs):
            spawns.append(argv)
            return subprocess.CompletedProcess(argv, 0, stdout="abc123\n", stderr="")

        monkeypatch.setattr(manifest_module.subprocess, "run", fake_run)
        assert git_sha() == "abc123"
        assert git_sha() == "abc123"
        assert len(spawns) == 1
        # Resolved against the package directory, not the working directory.
        assert spawns[0][:3] == ["git", "-C", str(PACKAGE_DIR)]

    def test_default_when_git_is_unavailable(self, monkeypatch):
        def no_git(argv, **_kwargs):
            raise OSError("git not found")

        monkeypatch.setattr(manifest_module.subprocess, "run", no_git)
        assert git_sha() == "unknown"

    @pytest.mark.skipif(not in_checkout(), reason="needs git and a git checkout")
    def test_independent_of_working_directory(self, tmp_path, monkeypatch):
        monkeypatch.chdir(REPO_ROOT)
        from_root = git_sha()
        git_sha.cache_clear()
        monkeypatch.chdir(tmp_path)
        assert git_sha() == from_root != "unknown"
