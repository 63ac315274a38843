// determinism-taint fixture: a streamed writer is a sink of its own. The
// record writes itself through write_json without any to_json on the path,
// and the source (thread identity, which has no base token rule) sits in a
// helper one call away; the diagnostic must name the helper -> write_json
// path.
#include <thread>

namespace fx {

struct Writer {
  void number(double v) { last = v; }
  double last = 0;
};

inline double lane_of_this_thread() {
  return std::this_thread::get_id() == std::this_thread::get_id() ? 1.0 : 2.0;
}

struct Record {
  void write_json(Writer& w) const;
};

void Record::write_json(Writer& w) const { w.number(lane_of_this_thread()); }

}  // namespace fx
