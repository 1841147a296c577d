"""The experiment service: a daemon serving the job queue, plus the
typed client facade.

* :mod:`repro.service.protocol` — address parsing and the JSONL wire
  format shared by daemon and client;
* :mod:`repro.service.server` — :class:`ExperimentService`, the
  long-running daemon behind ``repro-experiments serve``;
* :mod:`repro.service.client` — :class:`ExperimentClient`, one typed
  ``submit``/``result``/``stream`` surface that works in-process (no
  daemon) or against a running daemon.
"""

from repro._lazy import lazy_exports

_EXPORTS = {
    "ExperimentClient": "repro.service.client",
    "ExperimentService": "repro.service.server",
    "ServiceConfig": "repro.service.server",
    "ServiceError": "repro.service.server",
    "default_address": "repro.service.protocol",
    "parse_address": "repro.service.protocol",
}

__all__ = list(_EXPORTS)
__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
