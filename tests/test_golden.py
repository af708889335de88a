import json

from golden import record


def test_cli_outputs_match_the_golden_manifest():
    # every command of record.COMMANDS against the hashes recorded in
    # manifest.json; a difference names each command and output that moved
    want = json.loads(record.MANIFEST.read_text())
    got = record.run_all()
    moved = []
    for name in sorted(want["commands"].keys() | got["commands"].keys()):
        old, new = want["commands"].get(name), got["commands"].get(name)
        if old is None or new is None:
            moved.append(f"{name}: {'not in the manifest' if old is None else 'not run'}")
            continue
        if old["exit"] != new["exit"]:
            moved.append(f"{name}: exit {old['exit']} -> {new['exit']}")
        for stream in ("stdout", "stderr"):
            if old[stream] != new[stream]:
                moved.append(f"{name}: {stream}")
        for file in sorted(old["files"].keys() | new["files"].keys()):
            if old["files"].get(file) != new["files"].get(file):
                moved.append(f"{name}: {file}")
    versions = f"numpy {got['numpy']} here, {want['numpy']} in the manifest"
    assert not moved and got["numpy"] == want["numpy"], (
        f"{versions}; outputs that differ: {moved or 'none'}"
    )
