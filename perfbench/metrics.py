"""Metric names and units the benchmark reports (BENCHMARK.json lists the same).

End-to-end metrics are medians over the samples of untraced runs; every
workload reports all of them. Per-layer metrics come from the traced run;
a function a workload never calls reports 0.
"""

END_TO_END = {
    "setup_s": "s",
    "pipeline_s": "s",
    "train_tokens_per_s": "tok/s",
    "fp32_tokens_per_s": "tok/s",
    "pruned_tokens_per_s": "tok/s",
    "dynamic_tokens_per_s": "tok/s",
    "mixed_tokens_per_s": "tok/s",
    "bytes_pruned": "B",
    "bytes_dynamic": "B",
    "bytes_mixed": "B",
    "peak_rss_mb": "MB",
}


def _timed(label: str, stats=("calls", "busy_s", "self_s")) -> dict:
    return {f"{label}.{s}": ("count" if s == "calls" else "s") for s in stats}


PER_LAYER = {
    **_timed("tensor.matmul"), "tensor.matmul.gflop": "GFLOP",
    **_timed("tensor.gelu"),
    **_timed("tensor.layer_norm"),
    **_timed("tensor.softmax"),
    **_timed("tensor.backward"),
    "tensor.adam_step.busy_s": "s", "tensor.adam_step.params": "count",
    **_timed("model.forward"),
    "model.finetune.self_s": "s",
    **_timed("quant.int8_matmul", ("calls", "busy_s")),
    "quant.int8_matmul.gop": "GOP", "quant.int8_matmul.fp32_share": "ratio",
    **_timed("quant.quantize_with_outliers", ("calls", "busy_s")),
    "quant.quantize_with_outliers.outlier_vectors": "count",
    **_timed("quant.absmax_quantize"),
    "quant.quantized_forward.self_s": "s",
    "evaluation.evaluate.self_s": "s",
    "evaluation.span_prf.busy_s": "s",
    "persist.save_model.busy_s": "s",
    "persist.save_model.bytes": "B",
    "persist.load_model.busy_s": "s",
    "persist.serialized_bytes.busy_s": "s",
    "persist.mixed_reload_max_abs_logit_delta": "logit",
    "prune.compute_mask.busy_s": "s",
    **_timed("prune.apply_mask", ("calls", "busy_s")),
    "distill.distill_task_specific.self_s": "s",
    "data.batch.busy_s": "s",
    "cli.run_cli.self_s": "s",
    "trace.overhead_ratio": "ratio",
}
