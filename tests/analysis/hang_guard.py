"""Runtime hang guard for the concurrency tests.

Every thread and future a stress test starts must finish within one
deadline.  When something does not — a deadlock, a lost wakeup, a pool
that never drains — the test fails at once with the stack of every live
thread (from :func:`sys._current_frames`), instead of wedging the run
until CI's job timeout reaps it with no clue where it stuck.

A stuck thread cannot be killed, so a test that trips the guard leaves
the objects the thread is stuck in unclosed (closing an engine would
wait on its stuck workers): only its own test fails, and the rest of the
run goes on.  The interpreter's exit may still wait on a stuck pool
worker; CI bounds that with a step timeout.
"""

import concurrent.futures
import sys
import threading
import time
import traceback

import pytest


def thread_stacks(hung=()):
    """Every live thread's name and stack, hung threads marked."""
    frames = sys._current_frames()
    hung_ids = {thread.ident for thread in hung}
    lines = []
    for thread in threading.enumerate():
        frame = frames.get(thread.ident)
        if frame is None:
            continue
        mark = " (HUNG)" if thread.ident in hung_ids else ""
        lines.append(f"--- thread {thread.name}{mark}")
        lines.extend(line.rstrip("\n")
                     for line in traceback.format_stack(frame))
    return "\n".join(lines)


def join_all(threads, deadline):
    """Join ``threads`` within ``deadline`` seconds in total; on a hang,
    fail with every thread's stack."""
    end = time.monotonic() + deadline
    for thread in threads:
        thread.join(max(0.0, end - time.monotonic()))
    hung = [thread for thread in threads if thread.is_alive()]
    if hung:
        pytest.fail(f"{len(hung)} thread(s) still running after "
                    f"{deadline:.1f}s:\n{thread_stacks(hung)}",
                    pytrace=False)


def wait_all(futures, deadline):
    """Results of ``futures`` within ``deadline`` seconds in total; on a
    hang, fail with every thread's stack."""
    done, pending = concurrent.futures.wait(futures, timeout=deadline)
    if pending:
        pytest.fail(f"{len(pending)} of {len(futures)} future(s) still "
                    f"pending after {deadline:.1f}s:\n{thread_stacks()}",
                    pytrace=False)
    return [future.result() for future in futures]
