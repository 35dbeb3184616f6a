// Tri-state phase-frequency detector + charge pump, behavioral model.
//
// This is the circuit the paper's Matlab/Simulink verification implements
// with flip-flops (Section 5): the phase error is encoded in the *width*
// of UP/DOWN pulses, not idealized as Dirac impulses, so simulating it
// tests the paper's Fig. 4 narrow-pulse approximation for real.
//
// Standard sequential behavior:
//   reference rising edge -> UP high
//   VCO rising edge       -> DOWN high
//   UP and DOWN both high -> both reset (ideal, zero reset delay)
// The charge pump sources +Icp while UP, sinks -Icp while DOWN.
#pragma once

namespace htmpll {

class TriStatePfd {
 public:
  enum class State { kIdle, kUp, kDown };

  void on_reference_edge();
  void on_vco_edge();

  State state() const;
  bool up() const { return up_; }
  bool down() const { return down_; }

  /// Charge-pump output current for pump magnitude icp.
  double pump_current(double icp) const;

  void reset();

 private:
  bool up_ = false;
  bool down_ = false;
};

}  // namespace htmpll
