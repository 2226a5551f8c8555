"""tools/same_output.py's workdir lock: two runs on one workdir take turns."""

import importlib.util
import threading
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load_tool(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "bench"))  # the tool imports bench/workloads.py
    spec = importlib.util.spec_from_file_location("same_output", ROOT / "tools" / "same_output.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_two_holders_of_the_workdir_lock_run_one_after_the_other(tmp_path, monkeypatch):
    same_output = load_tool(monkeypatch)
    workdir = tmp_path / "work"
    events, held = [], threading.Event()

    def first():
        with same_output.exclusive(workdir):
            events.append("first in")
            held.set()
            time.sleep(0.2)  # the second holder must wait this out
            events.append("first out")

    def second():
        held.wait()
        with same_output.exclusive(workdir):
            events.append("second in")

    threads = [threading.Thread(target=f) for f in (first, second)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=10)
    assert not any(thread.is_alive() for thread in threads)
    assert events == ["first in", "first out", "second in"]
    assert (tmp_path / "work.lock").is_file()
