// Lint fixture (never compiled): a trace line read with `>>`, which stops at
// the first character it cannot use, so `123.7x` loads as 123.7.
// tools/anu_lint.py must flag line 8 with [stream-parse], and only it: an
// output stream formats, it does not parse.
#include <sstream>
#include <string>

double bad_demand(const std::string& line) {
  std::istringstream words(line);
  double demand = 0.0;
  words >> demand;
  return demand;
}

std::string label(int id) {
  std::ostringstream os;
  os << "fs" << id;
  return os.str();
}
