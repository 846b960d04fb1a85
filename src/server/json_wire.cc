#include "server/json_wire.h"

#include <cmath>
#include <string>
#include <utility>

namespace subdex {

namespace {

Status BadField(std::string_view what, const char* requirement) {
  // Appended piece by piece: GCC 12 reports a false -Wrestrict overlap for
  // an operator+ chain here at -O3.
  std::string message = "'";
  message += what;
  message += "' ";
  message += requirement;
  return Status::InvalidArgument(std::move(message));
}

}  // namespace

Result<double> WireNumber(const JsonValue& value, std::string_view what) {
  if (!value.is_number()) return BadField(what, "must be a number");
  const double d = value.number();
  if (!std::isfinite(d)) return BadField(what, "must be a finite number");
  return d;
}

Result<size_t> WireIndex(const JsonValue& value, std::string_view what) {
  Result<double> number = WireNumber(value, what);
  if (!number.ok()) return number.status();
  const double d = number.value();
  if (!(d >= 0) || d != std::floor(d)) {
    return BadField(what, "must be a non-negative integer");
  }
  if (d > kWireMaxCount) return BadField(what, "is implausibly large");
  return static_cast<size_t>(d);
}

Status WireCountField(const JsonValue& obj, std::string_view key,
                      size_t* out) {
  const JsonValue* v = obj.Find(key);
  if (v == nullptr) return Status::Ok();
  Result<size_t> index = WireIndex(*v, key);
  if (!index.ok()) return index.status();
  *out = index.value();
  return Status::Ok();
}

Status WireMsField(const JsonValue& obj, std::string_view key, double* out,
                   WireSign sign) {
  const JsonValue* v = obj.Find(key);
  if (v == nullptr) return Status::Ok();
  Result<double> number = WireNumber(*v, key);
  if (!number.ok()) return number.status();
  const double d = number.value();
  if (sign == WireSign::kPositive ? !(d > 0) : !(d >= 0)) {
    return BadField(key, sign == WireSign::kPositive
                             ? "must be a positive number"
                             : "must be a non-negative number");
  }
  *out = d;
  return Status::Ok();
}

}  // namespace subdex
