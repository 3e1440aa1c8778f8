// Backpressure policy for the frame-delivery path.
//
// The output processor must never let a slow link stall the pipeline: the
// send queue is bounded, and when it backs up the controller degrades the
// stream instead of blocking — first by stepping the lossy quantization
// tier up one level at a time, then, past the last tier, by switching to
// keyframe-only mode (every frame self-contained, so drops cost nothing
// but the dropped frame). When the link recovers the controller steps back
// down one level per `recover_after` consecutive low-water observations,
// so a recovered link returns to lossless within a bounded number of
// frames: recover_after * (max_tier + 1).
//
// The policy is a pure function of observed queue depth — deterministic,
// unit-testable against scripted depth traces, no wall-clock input.
#pragma once

#include <algorithm>

namespace qv::stream {

struct ControllerConfig {
  int queue_capacity = 8;  // queue depth at which we drop outright
  int high_water = 4;      // depth at which we escalate one level
  int low_water = 1;       // depth at or below which we accrue recovery credit
  int recover_after = 3;   // consecutive low-water frames per de-escalation
  int max_tier = 2;        // highest quantization tier before keyframe-only
};

struct Decision {
  int tier = 0;          // quantization tier for this frame
  bool keyframe = false; // force a self-contained frame
  bool drop = false;     // skip this frame entirely
  int level = 0;         // controller level after this observation
};

class DegradationController {
 public:
  explicit DegradationController(ControllerConfig cfg = {}) : cfg_(cfg) {
    cfg_.max_tier = std::clamp(cfg_.max_tier, 0, 3);
    cfg_.queue_capacity = std::max(cfg_.queue_capacity, 1);
    cfg_.high_water = std::clamp(cfg_.high_water, 1, cfg_.queue_capacity);
    cfg_.low_water = std::clamp(cfg_.low_water, 0, cfg_.high_water - 1);
    cfg_.recover_after = std::max(cfg_.recover_after, 1);
  }

  // Levels 0..max_tier encode "delta frames at tier = level"; one past that
  // is keyframe-only at max_tier.
  int max_level() const { return cfg_.max_tier + 1; }
  int level() const { return level_; }
  const ControllerConfig& config() const { return cfg_; }

  // One observation per produced frame, BEFORE encoding it: `queue_depth`
  // is the link's queue depth in frames. StreamSession passes
  // WanLink::backlog(), DeliveryServer WanLink::in_flight().
  Decision on_frame(int queue_depth) {
    if (queue_depth >= cfg_.high_water) {
      level_ = std::min(level_ + 1, max_level());
      credit_ = 0;
    } else if (queue_depth <= cfg_.low_water) {
      if (++credit_ >= cfg_.recover_after) {
        level_ = std::max(level_ - 1, 0);
        credit_ = 0;
      }
    } else {
      credit_ = 0;  // mid-band: hold
    }
    Decision d;
    d.drop = queue_depth >= cfg_.queue_capacity;
    d.keyframe = level_ == max_level();
    d.tier = std::min(level_, cfg_.max_tier);
    d.level = level_;
    return d;
  }

 private:
  ControllerConfig cfg_;
  int level_ = 0;
  int credit_ = 0;
};

}  // namespace qv::stream
