#include "geom/geom.h"

#include <ostream>
#include <sstream>

namespace ffet::geom {

std::ostream& operator<<(std::ostream& os, const Point& p) {
  return os << '(' << p.x << ", " << p.y << ')';
}

std::ostream& operator<<(std::ostream& os, const Rect& r) {
  return os << '[' << r.lo << " .. " << r.hi << ']';
}

namespace {
std::string format_um(double v) {
  std::ostringstream os;
  os.setf(std::ios::fixed);
  os.precision(3);
  os << v;
  return os.str();
}
}  // namespace

std::string to_string_um(const Point& p) {
  return std::string("(") + format_um(to_um(p.x)) + ", " +
         format_um(to_um(p.y)) + ") um";
}

std::string to_string_um(const Rect& r) {
  return std::string("[") + to_string_um(r.lo) + " .. " +
         to_string_um(r.hi) + "]";
}

}  // namespace ffet::geom
