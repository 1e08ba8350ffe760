"""One config document for the whole pipeline, JSON-loadable with defaults.

Unknown fields are collected as warnings rather than errors; invalid values
raise ConfigError naming the dotted field and the violated constraint.
"""

from __future__ import annotations

import json
import numbers
from dataclasses import dataclass, field
from pathlib import Path

from .allocator import McfParams, MnnParams
from .encoder import EncoderConfig
from .errors import ConfigError, InvalidInputError, check_types
from .matcher import MatcherParams
from .scene_graph import DEFAULT_D_TH, DEFAULT_N_MAX


@dataclass(frozen=True)
class EdgeParams:
    n_max: int = DEFAULT_N_MAX
    d_th: float = DEFAULT_D_TH

    def __post_init__(self):
        check_types(self, numbers.Integral, "an integer", ("n_max",))
        check_types(self, numbers.Real, "a number", ("d_th",))
        if self.n_max < 1:
            raise InvalidInputError(f"n_max must be >= 1, got {self.n_max}")
        if not self.d_th > 0:  # also refuses NaN
            raise InvalidInputError(f"d_th must be > 0, got {self.d_th}")


@dataclass(frozen=True)
class RetrievalParams:
    allocator: str = "mnn"   # allocator used inside rerank
    rerank: str = "weighted"

    def __post_init__(self):
        if self.allocator not in ("mnn", "mcf"):
            raise InvalidInputError(f"allocator must be mnn|mcf, got {self.allocator}")
        if self.rerank not in ("direct", "weighted"):
            raise InvalidInputError(f"rerank must be direct|weighted, got {self.rerank}")


@dataclass(frozen=True)
class PipelineConfig:
    encoder: EncoderConfig = field(default_factory=EncoderConfig)
    matcher: MatcherParams = field(default_factory=MatcherParams)
    mnn: MnnParams = field(default_factory=MnnParams)
    mcf: McfParams = field(default_factory=McfParams)
    edges: EdgeParams = field(default_factory=EdgeParams)
    retrieval: RetrievalParams = field(default_factory=RetrievalParams)
    weights_path: str | None = None

    def to_dict(self) -> dict:
        return {
            "encoder": self.encoder.to_dict(),
            "matcher": {
                "temperature": self.matcher.temperature,
                "dustbin_logit": self.matcher.dustbin_logit,
            },
            "mnn": {"min_score": self.mnn.min_score},
            "mcf": {
                "tau": self.mcf.tau,
                "top_k": self.mcf.top_k,
                "c_unmatched": self.mcf.c_unmatched,
                "lambda": self.mcf.lam,
                "cap_max": self.mcf.cap_max,
                "max_iters": self.mcf.max_iters,
            },
            "edges": {"n_max": self.edges.n_max, "d_th": self.edges.d_th},
            "retrieval": {
                "allocator": self.retrieval.allocator,
                "rerank": self.retrieval.rerank,
            },
            "weights_path": self.weights_path,
        }


def config_from_dict(data: dict) -> tuple[PipelineConfig, list[str]]:
    """Merge a (possibly partial) document over defaults.

    The default document (`PipelineConfig().to_dict()`) is the schema: a
    field it lacks is not read. Returns (config, warnings); warnings list
    unknown fields.
    """
    warnings: list[str] = []
    defaults = PipelineConfig().to_dict()
    merged: dict = {}
    for section, fields in defaults.items():
        if not isinstance(fields, dict):  # weights_path, a plain field
            continue
        given = data.get(section, {})
        if not isinstance(given, dict):
            raise ConfigError(section, "must be an object")
        merged[section] = dict(fields)
        for key, value in given.items():
            if key not in fields:
                warnings.append(f"unknown field {section}.{key}")
                continue
            merged[section][key] = value
    warnings += [f"unknown field {key}" for key in data if key not in defaults]

    def build(section: str, ctor, kwargs: dict):
        try:
            return ctor(**kwargs)
        except InvalidInputError as exc:
            raise ConfigError(section, str(exc)) from exc

    enc_kwargs = dict(merged["encoder"])
    if not isinstance(enc_kwargs["feature_dims"], list):
        raise ConfigError("encoder", f"feature_dims must be a list, "
                                     f"got {enc_kwargs['feature_dims']!r}")
    enc_kwargs["feature_dims"] = tuple(enc_kwargs["feature_dims"])
    weights_path = data.get("weights_path")
    if weights_path is not None and not isinstance(weights_path, str):
        raise ConfigError("weights_path", f"must be a string or null, got {weights_path!r}")
    mcf_kwargs = dict(merged["mcf"])
    mcf_kwargs["lam"] = mcf_kwargs.pop("lambda")
    cfg = PipelineConfig(
        encoder=build("encoder", EncoderConfig, enc_kwargs),
        matcher=build("matcher", MatcherParams, merged["matcher"]),
        mnn=build("mnn", MnnParams, merged["mnn"]),
        mcf=build("mcf", McfParams, mcf_kwargs),
        edges=build("edges", EdgeParams, merged["edges"]),
        retrieval=build("retrieval", RetrievalParams, merged["retrieval"]),
        weights_path=weights_path,
    )
    return cfg, warnings


def load_config(path) -> tuple[PipelineConfig, list[str]]:
    try:
        data = json.loads(Path(path).read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise ConfigError(str(path), f"not valid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise ConfigError(str(path), "top level must be an object")
    return config_from_dict(data)


def save_config(config: PipelineConfig, path) -> None:
    Path(path).write_text(json.dumps(config.to_dict(), indent=2), encoding="utf-8")
