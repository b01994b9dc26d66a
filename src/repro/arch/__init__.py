"""Architecture-level simulation: mapper, cost model and pipeline study."""

from repro._exports import lazy_exports

_EXPORTS = {
    "accelerator": ("AcceleratorSpec", "yoco_spec"),
    "deploy": ("ChipBackend", "DeploymentReport"),
    "mapper": ("MappingPlan", "map_layer", "map_workload"),
    "pipeline": (
        "FIG10_GEOMETRIES",
        "AttentionGeometry",
        "AttentionPipelineModel",
        "PipelineResult",
        "TokenStages",
        "geometry_for_workload",
    ),
    "result": ("LayerResult", "RunResult", "geometric_mean"),
    "simulator": ("ArchitectureSimulator", "BatchRunResult", "PipelinedRunResult"),
}

__getattr__, __dir__, __all__ = lazy_exports(__name__, _EXPORTS)
