"""repro.lang: the DESKS query language (DQL).

One sentence instead of one API call::

    SELECT 5 NEAR (320.0, 240.0) HEADING [0.5, 1.8] MATCHING 'cafe sushi'
        WITHIN 50.0 TIMEOUT 200

The package layers exactly like a small database front end:

* :mod:`~repro.lang.lexer` + :mod:`~repro.lang.parser` — statement text
  to a typed logical plan, every failure a positioned
  :class:`DqlSyntaxError`;
* :mod:`~repro.lang.plan` — frozen, validated plans whose canonical
  :meth:`~repro.lang.plan.SelectPlan.render` round-trips through
  :func:`parse` bit-exactly;
* :mod:`~repro.lang.executor` — one seam binding a plan to a query
  engine, a shard router, or a socket client, always
  returning a :class:`StatementOutcome`.

The language layer is *pure*: it imports only ``geometry``, ``text``,
``core``, and ``trace`` (lint rule DAL010) — backends are passed in,
never constructed here.
"""

from .errors import DqlError, DqlExecutionError, DqlSyntaxError
from .executor import (
    DqlExecutor,
    EngineBackend,
    RouterBackend,
    SocketBackend,
    StatementOutcome,
)
from .lexer import Token, tokenize_statement
from .parser import parse
from .plan import (
    ExplainPlan,
    Plan,
    SelectPlan,
    ShowPlan,
    canonical_keywords,
    plan_from_query,
)

__all__ = [
    "DqlError", "DqlExecutionError", "DqlSyntaxError",
    "Token", "tokenize_statement", "parse",
    "SelectPlan", "ExplainPlan", "ShowPlan", "Plan",
    "canonical_keywords", "plan_from_query",
    "DqlExecutor", "StatementOutcome",
    "EngineBackend", "RouterBackend", "SocketBackend",
]
