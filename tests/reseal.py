"""Re-seal a saved directory's checksum manifest after a test damaged it.

Every reader checks a directory against its ``checksums.json`` before it
parses a byte of it.  A test that damages a saved file to reach one of
the decoders' own checks (a version, a count, a missing file) re-seals
the manifest over what the directory now holds, with persistence's own
sealing code, so the damage reaches the check the test is about.
"""

import os

from repro.core.persistence import CHECKSUMS_FILE, _write_manifest


def reseal(directory):
    """Rewrite ``directory``'s manifest over its files and, for a
    deployment root, its shards' manifests."""
    names = []
    for name in sorted(os.listdir(directory)):
        path = os.path.join(directory, name)
        if os.path.isfile(path) and name != CHECKSUMS_FILE:
            names.append(name)
        elif os.path.isfile(os.path.join(path, CHECKSUMS_FILE)):
            names.append(f"{name}/{CHECKSUMS_FILE}")
    _write_manifest(str(directory), names)
