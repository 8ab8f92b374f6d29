"""Production service: configurations, cached selection API, metrics."""

from .app import (
    PodiumService,
    ThreadingWSGIServer,
    make_http_server,
    make_wsgi_app,
    parse_constraints,
    parse_feedback,
    parse_profile_delta,
    serve,
)
from .concurrency import ReadWriteLock
from .config import (
    ConfigurationStore,
    DiversificationConfiguration,
    default_configuration,
)
from .replication import WalFollower
from .metrics import (
    WORKER_COUNTER_FIELDS,
    ServiceMetrics,
    StageTimer,
    aggregate_worker_rows,
    request_log_record,
)
from .workers import (
    SharedPoolState,
    WorkerPool,
    WorkerRuntime,
    WriteCoordinator,
    make_worker_app,
    serve_pool,
)
from .viz import (
    explanation_payload,
    render_html,
    render_metrics_text,
    render_text,
)

__all__ = [
    "PodiumService",
    "ThreadingWSGIServer",
    "make_http_server",
    "make_wsgi_app",
    "parse_constraints",
    "parse_feedback",
    "parse_profile_delta",
    "serve",
    "ReadWriteLock",
    "ConfigurationStore",
    "DiversificationConfiguration",
    "default_configuration",
    "ServiceMetrics",
    "StageTimer",
    "WalFollower",
    "WORKER_COUNTER_FIELDS",
    "aggregate_worker_rows",
    "request_log_record",
    "SharedPoolState",
    "WorkerPool",
    "WorkerRuntime",
    "WriteCoordinator",
    "make_worker_app",
    "serve_pool",
    "explanation_payload",
    "render_html",
    "render_metrics_text",
    "render_text",
]
