#include "src/backend/executor.h"

#include <cmath>
#include <stdexcept>

namespace oscar {

void
CostFunction::checkParams(const std::vector<double>& params) const
{
    if (static_cast<int>(params.size()) != numParams())
        throw std::invalid_argument(
            "CostFunction::evaluate: wrong parameter count");
}

double
CostFunction::evaluate(const std::vector<double>& params)
{
    checkParams(params);
    const std::uint64_t ordinal = reserve(1);
    return evaluateImpl(params, ordinal);
}

std::vector<double>
CostFunction::evaluateBatch(const std::vector<std::vector<double>>& points)
{
    for (const auto& p : points)
        checkParams(p);
    std::vector<double> out(points.size());
    if (points.empty())
        return out;
    const std::uint64_t base = reserve(points.size());
    evaluateBatchImpl(points, base, out.data());
    return out;
}

void
CostFunction::evaluateBatchImpl(std::span<const std::vector<double>> points,
                                std::uint64_t base_ordinal, double* out)
{
    for (std::size_t i = 0; i < points.size(); ++i)
        out[i] = evaluateImpl(points[i], base_ordinal + i);
}

double
CostFunction::invokeAt(CostFunction& f, const std::vector<double>& params,
                       std::uint64_t ordinal)
{
    f.checkParams(params);
    f.queries_.fetch_add(1, std::memory_order_relaxed);
    return f.evaluateImpl(params, ordinal);
}

ShotNoiseCost::ShotNoiseCost(std::shared_ptr<CostFunction> inner,
                             std::size_t shots, double sigma_single_shot,
                             std::uint64_t seed)
    : inner_(std::move(inner)), shots_(shots), sigma1_(sigma_single_shot),
      seed_(seed)
{
    if (shots_ == 0)
        throw std::invalid_argument("ShotNoiseCost: shots must be > 0");
}

std::unique_ptr<CostFunction>
ShotNoiseCost::clone() const
{
    std::unique_ptr<CostFunction> inner = inner_->clone();
    if (!inner)
        return nullptr;
    auto copy = std::make_unique<ShotNoiseCost>(*this);
    copy->inner_ = std::shared_ptr<CostFunction>(std::move(inner));
    return copy;
}

double
ShotNoiseCost::evaluateImpl(const std::vector<double>& params,
                            std::uint64_t ordinal)
{
    const double exact = invokeAt(*inner_, params, ordinal);
    const double sigma = sigma1_ / std::sqrt(static_cast<double>(shots_));
    Rng rng(mixSeed(seed_, ordinal));
    return exact + rng.normal(0.0, sigma);
}

} // namespace oscar
